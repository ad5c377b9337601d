// Integration tests spanning the whole toolchain: every benchmark compiled
// on every topology with every pipeline, verified for hardware legality,
// bookkeeping invariants, and (where cheap) functional correctness.
package trios_test

import (
	"math"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/compiler"
	"trios/internal/noise"
	"trios/internal/qasm"
	"trios/internal/sched"
	"trios/internal/sim"
	"trios/internal/stab"
	"trios/internal/topo"
)

func TestCompileEveryBenchmarkEverywhere(t *testing.T) {
	pipelines := []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline}
	for _, b := range benchmarks.All() {
		src, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, g := range topo.PaperTopologies() {
			for _, pipe := range pipelines {
				res, err := compiler.Compile(src, g, compiler.Options{
					Pipeline:  pipe,
					Placement: compiler.PlaceGreedy,
					Seed:      1,
				})
				if err != nil {
					t.Fatalf("%s on %s with %v: %v", b.Name, g.Name(), pipe, err)
				}
				if err := res.Verify(); err != nil {
					t.Fatalf("%s on %s with %v: %v", b.Name, g.Name(), pipe, err)
				}
				if err := res.Physical.Validate(); err != nil {
					t.Fatalf("%s on %s with %v: %v", b.Name, g.Name(), pipe, err)
				}
				// Schedulable and evaluable end to end.
				if _, err := sched.Run(res.Physical, sched.JohannesburgTimes()); err != nil {
					t.Fatalf("%s on %s: %v", b.Name, g.Name(), err)
				}
				p, err := noise.SuccessProbability(res.Physical, noise.Johannesburg0819().Improved(20))
				if err != nil {
					t.Fatalf("%s on %s: %v", b.Name, g.Name(), err)
				}
				if p <= 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("%s on %s: success %v out of range", b.Name, g.Name(), p)
				}
				// Compiled output serializes to QASM and parses back.
				text, err := qasm.Emit(res.Physical)
				if err != nil {
					t.Fatalf("%s on %s: %v", b.Name, g.Name(), err)
				}
				back, err := qasm.Parse(text)
				if err != nil {
					t.Fatalf("%s on %s: qasm round trip: %v", b.Name, g.Name(), err)
				}
				if len(back.Gates) != len(res.Physical.Gates) {
					t.Fatalf("%s on %s: qasm round trip lost gates", b.Name, g.Name())
				}
			}
		}
	}
}

// checkCompiledAdder feeds concrete numbers through a fully compiled
// Cuccaro adder of width n, checking sums via the placement bookkeeping.
func checkCompiledAdder(t *testing.T, n int, g *topo.Graph, pairs [][2]uint64) {
	t.Helper()
	cuccaro, err := benchmarks.CuccaroAdder(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(cuccaro, g, compiler.Options{
		Pipeline:  compiler.TriosPipeline,
		Placement: compiler.PlaceGreedy,
		Seed:      2,
	})
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	mask := uint64(1)<<uint(n) - 1
	for _, pair := range pairs {
		a, b := pair[0]&mask, pair[1]&mask
		logical := a<<1 | b<<uint(1+n)
		var physIn uint64
		for v := 0; v < cuccaro.NumQubits; v++ {
			if logical&(1<<uint(v)) != 0 {
				physIn |= 1 << uint(res.Initial[v])
			}
		}
		physOut, err := sim.ClassicalOutput(res.Physical, physIn)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		var sum uint64
		for i := 0; i < n; i++ {
			if physOut&(1<<uint(res.Final[1+n+i])) != 0 {
				sum |= 1 << uint(i)
			}
		}
		var cout uint64
		if physOut&(1<<uint(res.Final[2*n+1])) != 0 {
			cout = 1
		}
		total := sum | cout<<uint(n)
		if total != a+b {
			t.Fatalf("%s: %d + %d compiled to %d", g.Name(), a, b, total)
		}
	}
}

// TestCompiledAddersStillAdd checks end-to-end sums on 12-qubit scaled
// versions of each paper topology (cheap statevectors), plus one full-size
// 20-qubit run unless -short.
func TestCompiledAddersStillAdd(t *testing.T) {
	small := []*topo.Graph{topo.Grid(3, 4), topo.Line(12), topo.Clusters(3, 4)}
	for _, g := range small {
		checkCompiledAdder(t, 5, g, [][2]uint64{{3, 5}, {31, 1}, {22, 13}, {31, 31}})
	}
	if testing.Short() {
		return
	}
	checkCompiledAdder(t, 9, topo.Johannesburg(), [][2]uint64{{300, 211}, {511, 511}})
}

// TestCompiledGroverStillSearches runs the fully compiled Grover circuit on
// the 20-qubit statevector and confirms the marked state dominates.
func TestCompiledGroverStillSearches(t *testing.T) {
	if testing.Short() {
		t.Skip("20-qubit statevector run")
	}
	grover, err := benchmarks.Grover(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(grover, topo.Johannesburg(), compiler.Options{
		Pipeline:  compiler.TriosPipeline,
		Placement: compiler.PlaceGreedy,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	state := sim.NewState(20)
	if err := state.ApplyCircuit(res.Physical); err != nil {
		t.Fatal(err)
	}
	var marked uint64
	for v := 0; v < 6; v++ {
		marked |= 1 << uint(res.Final[v])
	}
	if p := state.Probability(marked); p < 0.9 {
		t.Errorf("compiled grover marked probability = %v", p)
	}
}

// TestCompiledBVExactlyEquivalentAt20Qubits uses the stabilizer simulator
// to verify the compiled Bernstein-Vazirani benchmark (pure Clifford) is
// *exactly* equivalent to its source at full device size on every topology
// and pipeline — a check the statevector cannot do cheaply.
func TestCompiledBVExactlyEquivalentAt20Qubits(t *testing.T) {
	src, err := benchmarks.BernsteinVazirani(19)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range topo.PaperTopologies() {
		for _, pipe := range []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline} {
			for _, router := range []compiler.RouterKind{compiler.RouteDirect, compiler.RouteStochastic} {
				res, err := compiler.Compile(src, g, compiler.Options{
					Pipeline: pipe, Router: router, Seed: 6,
				})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", g.Name(), pipe, router, err)
				}
				if !stab.IsClifford(res.Physical) {
					t.Fatalf("%s: compiled bv should stay Clifford", g.Name())
				}
				// Reference: source remapped to initial placement, then the
				// final permutation applied.
				ref := stab.NewState(20)
				mapped := src.Remap(20, func(v int) int { return res.Initial[v] })
				if err := ref.ApplyCircuit(mapped); err != nil {
					t.Fatal(err)
				}
				perm := make([]int, 20)
				for v := 0; v < 20; v++ {
					perm[res.Initial[v]] = res.Final[v]
				}
				want := ref.PermuteQubits(perm)

				got := stab.NewState(20)
				if err := got.ApplyCircuit(res.Physical); err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s/%v/%v: compiled bv-20 differs from source", g.Name(), pipe, router)
				}
			}
		}
	}
}

// TestTriosNeverLosesOnGateCount sweeps all Toffoli benchmarks and checks
// the paper's monotonicity claim ("Trios will never perform worse than the
// baseline") for the primary hardware-independent metric under the
// era-faithful configuration.
func TestTriosNeverLosesOnGateCount(t *testing.T) {
	for _, b := range benchmarks.All() {
		src, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range topo.PaperTopologies() {
			base, err := compiler.Compile(src, g, compiler.Options{
				Pipeline: compiler.Conventional, Router: compiler.RouteStochastic, Seed: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			trios, err := compiler.Compile(src, g, compiler.Options{
				Pipeline: compiler.TriosPipeline, Router: compiler.RouteStochastic, Seed: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			bq, tq := base.TwoQubitGates(), trios.TwoQubitGates()
			if b.HasToffolis && tq > bq {
				t.Errorf("%s on %s: trios %d > baseline %d two-qubit gates", b.Name, g.Name(), tq, bq)
			}
			if !b.HasToffolis && tq != bq {
				t.Errorf("%s on %s: toffoli-free benchmark differs (%d vs %d)", b.Name, g.Name(), tq, bq)
			}
		}
	}
}
