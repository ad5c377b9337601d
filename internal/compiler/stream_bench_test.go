package compiler_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/qasm"
	"trios/internal/service"
	"trios/internal/topo"
)

// streamProgramGates is the input size of one stream-workload program.
const streamProgramGates = 32768

// streamPrograms builds n programs the way the stream workload does:
// Table-1 bodies, each with its qubits renamed by a seeded permutation of
// the 20-qubit register, concatenated until the program holds at least
// streamProgramGates gates, and emitted as canonical QASM.
func streamPrograms(tb testing.TB, n int) (progs [][]byte, gates int) {
	tb.Helper()
	var bodies []*circuit.Circuit
	for _, bm := range benchmarks.All() {
		c, err := bm.Build()
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, c)
	}
	rng := rand.New(rand.NewSource(1))
	for range n {
		c := circuit.New(20)
		for len(c.Gates) < streamProgramGates {
			perm := rng.Perm(20)
			c.AppendCircuit(bodies[rng.Intn(len(bodies))].Remap(20, func(q int) int { return perm[q] }))
		}
		src, err := qasm.Emit(c)
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, []byte(src))
		gates += len(c.Gates)
	}
	return progs, gates
}

// BenchmarkStreamCompile streams four stream-workload programs through
// StreamCompile with the stream endpoint's defaults (trios pipeline,
// greedy placement, direct router, pipelined stages) on johannesburg, and
// reports time and heap allocations per input gate.
func BenchmarkStreamCompile(b *testing.B) {
	progs, gates := streamPrograms(b, 4)
	opts, err := service.DefaultCompileOptions()
	if err != nil {
		b.Fatal(err)
	}
	sopts := compiler.StreamOptions{Options: opts, Parallel: true}
	g := topo.Johannesburg()
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	for b.Loop() {
		for _, p := range progs {
			if _, err := compiler.StreamCompile(context.Background(), bytes.NewReader(p), io.Discard, g, sopts); err != nil {
				b.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gates), "ns/gate")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*gates), "allocs/gate")
}
