package qasm_test

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/qasm"
	"trios/internal/topo"
)

// benchProgram is a compiled Table-1 program: grovers-9 through the trios
// pipeline on johannesburg (u1/u2/u3 with float parameters and cx), read
// out by a measure on every qubit.
func benchProgram(b testing.TB) *circuit.Circuit {
	b.Helper()
	bm, err := benchmarks.ByName("grovers-9")
	if err != nil {
		b.Fatal(err)
	}
	input, err := bm.Build()
	if err != nil {
		b.Fatal(err)
	}
	res, err := compiler.Compile(input, topo.Johannesburg(), compiler.Options{Pipeline: compiler.TriosPipeline, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	c := res.Physical
	for q := 0; q < c.NumQubits; q++ {
		c.Measure(q)
	}
	return c
}

func reportPerGate(b *testing.B, gates int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gates), "ns/gate")
}

// benchPerGate runs body in a benchmark loop and reports its time and heap
// allocations per gate of a gates-gate program.
func benchPerGate(b *testing.B, gates int, body func()) {
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	for b.Loop() {
		body()
	}
	runtime.ReadMemStats(&after)
	reportPerGate(b, gates)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*gates), "allocs/gate")
}

// programSource is benchProgram's canonical QASM.
func programSource(tb testing.TB) (string, int) {
	return source(tb, benchProgram(tb))
}

// inputSource is the canonical QASM of every Table-1 circuit in turn on
// one 20-qubit register, the kind of input the stream workload sends:
// mostly parameter-free h, x, t, cx and ccx statements.
func inputSource(tb testing.TB) (string, int) {
	c := circuit.New(20)
	for _, bm := range benchmarks.All() {
		body, err := bm.Build()
		if err != nil {
			tb.Fatal(err)
		}
		c.AppendCircuit(body)
	}
	return source(tb, c)
}

func source(tb testing.TB, c *circuit.Circuit) (string, int) {
	src, err := qasm.Emit(c)
	if err != nil {
		tb.Fatal(err)
	}
	return src, len(c.Gates)
}

// drain reads every gate of src through a Reader.
func drain(tb testing.TB, src string) int {
	r := qasm.NewReader(strings.NewReader(src))
	n := 0
	for {
		_, err := r.NextGate()
		if err == io.EOF {
			return n
		}
		if err != nil {
			tb.Fatal(err)
		}
		n++
	}
}

// sources are the programs the parse benchmarks read: compiled output
// (u1/u2/u3 with 17-digit parameters, cx, measure) and stream-like input.
var sources = []struct {
	name string
	src  func(testing.TB) (string, int)
}{{"compiled", programSource}, {"input", inputSource}}

// BenchmarkParse parses a whole program into a circuit.
func BenchmarkParse(b *testing.B) {
	for _, s := range sources {
		b.Run(s.name, func(b *testing.B) {
			src, gates := s.src(b)
			benchPerGate(b, gates, func() {
				if _, err := qasm.Parse(src); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkReader pulls a program gate by gate through a Reader, as the
// stream's read stage does.
func BenchmarkReader(b *testing.B) {
	for _, s := range sources {
		b.Run(s.name, func(b *testing.B) {
			src, gates := s.src(b)
			benchPerGate(b, gates, func() { drain(b, src) })
		})
	}
}

// TestReaderAllocsPerGate: reading a gate costs no allocation of its own.
// What a whole read allocates (the Reader, its line buffer, the register
// name and the operand chunks, which grow with the program) comes to well
// under one allocation in twenty gates.
func TestReaderAllocsPerGate(t *testing.T) {
	src, gates := programSource(t)
	if n := drain(t, src); n != gates {
		t.Fatalf("Reader read %d gates, the program has %d", n, gates)
	}
	allocs := testing.AllocsPerRun(5, func() { drain(t, src) })
	if perGate := allocs / float64(gates); perGate > 0.05 {
		t.Fatalf("Reader made %.0f allocations over %d gates (%.3f per gate), want <= 0.05 per gate", allocs, gates, perGate)
	}
}

// BenchmarkEmit renders the whole program to a string.
func BenchmarkEmit(b *testing.B) {
	c := benchProgram(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := qasm.Emit(c); err != nil {
			b.Fatal(err)
		}
	}
	reportPerGate(b, len(c.Gates))
}

// BenchmarkEmitter streams the program gate by gate through one Emitter,
// flushing at the end as the stream does after each window.
func BenchmarkEmitter(b *testing.B) {
	c := benchProgram(b)
	e, err := qasm.NewEmitter(io.Discard, c.NumQubits, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, g := range c.Gates {
			if err := e.EmitGate(g); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	reportPerGate(b, len(c.Gates))
}
