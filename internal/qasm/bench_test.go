package qasm_test

import (
	"io"
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
func benchProgram(b *testing.B) *circuit.Circuit {
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
