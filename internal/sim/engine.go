// The simulation engine: one dispatching front-end over the dense
// statevector, the stabilizer tableau, and the parallel trajectory sampler.
//
// Dispatch rules:
//
//   - Clifford circuits (circuit.IsClifford) go to the stabilizer backend:
//     polynomial in qubits, exact, no size cap below 64 qubits — a compiled
//     20-qubit bv circuit verifies in microseconds where the dense path
//     would sweep 2^20 amplitudes per gate.
//   - Everything else goes to the dense backend, rewritten around fused
//     branch-free kernels and capped at MaxQubits.
//   - Monte-Carlo noise trajectories fan out across a worker pool with
//     per-shot derived seeds, so results are deterministic for a fixed seed
//     at any worker count.
//
// A verification's Verdict names the backend that produced it.
package sim

import (
	"fmt"
	"math/rand"

	"trios/internal/circuit"
	"trios/internal/stab"
)

// Engine dispatches simulation work to backends. The zero value is ready to
// use; Workers caps sweep and trajectory parallelism (0 = GOMAXPROCS).
// Engines are safe for concurrent use.
type Engine struct {
	// Workers caps the goroutines used for parallel amplitude sweeps and
	// trajectory shots. 0 means runtime.GOMAXPROCS(0). Results never depend
	// on the value.
	Workers int
}

// workers resolves the effective worker count: Workers clamped to
// GOMAXPROCS, or GOMAXPROCS when unset. A GOMAXPROCS=1 process therefore
// always resolves to 1 and takes the serial fast paths, whatever the
// configured Workers.
func (e *Engine) workers() int {
	return clampWorkers(e.Workers)
}

// Verdict reports an equivalence check and the backend that produced it.
type Verdict struct {
	Equivalent bool
	// Backend is "stabilizer" or "dense".
	Backend string
}

// denseEquivalent is the fused-kernel equivalence check: both circuits are
// compiled to fused programs once and re-run across the random-state
// trials, with sweeps split across the engine's workers.
func (e *Engine) denseEquivalent(a, b *circuit.Circuit, trials int, seed int64) (bool, error) {
	pa, err := Fuse(a, a.NumQubits)
	if err != nil {
		return false, fmt.Errorf("sim: circuit a: %w", err)
	}
	pb, err := Fuse(b, b.NumQubits)
	if err != nil {
		return false, fmt.Errorf("sim: circuit b: %w", err)
	}
	w := e.workers()
	for t := 0; t < trials; t++ {
		in := NewRandomState(a.NumQubits, seed+int64(t))
		sa := in.Copy()
		if err := pa.Run(sa, w); err != nil {
			return false, fmt.Errorf("sim: circuit a: %w", err)
		}
		sb := in
		if err := pb.Run(sb, w); err != nil {
			return false, fmt.Errorf("sim: circuit b: %w", err)
		}
		if !(sa.Fidelity(sb) >= 1-EquivalenceTolerance) { // NaN fails too
			return false, nil
		}
	}
	return true, nil
}

// VerifyCompiled verifies a compiled physical circuit against its logical
// source (same contract as CompiledEquivalent: initial and final map each
// of the nLogical logical qubits to physical positions). Clifford pairs
// dispatch to the stabilizer backend and verify exactly at any device size
// up to 64 qubits; everything else uses the dense backend up to MaxQubits.
func (e *Engine) VerifyCompiled(logical, physical *circuit.Circuit, nPhysical int, initial, final []int, trials int, seed int64) (Verdict, error) {
	nLogical := logical.NumQubits
	if len(initial) != nLogical || len(final) != nLogical {
		return Verdict{}, fmt.Errorf("sim: layout length %d/%d, want %d", len(initial), len(final), nLogical)
	}
	if physical.NumQubits > nPhysical {
		return Verdict{}, fmt.Errorf("sim: physical circuit uses %d qubits, device has %d", physical.NumQubits, nPhysical)
	}
	sl, sp := logical.StripPseudo(), physical.StripPseudo()
	stabBE := StabilizerBackend{}
	// The device register must also fit the backend: the logical circuit
	// can be smaller than nPhysical.
	if stabBE.Supports(sl) && stabBE.Supports(sp) && nPhysical >= 1 && nPhysical <= MaxStabilizerQubits {
		ok, err := e.stabCompiled(sl, sp, nPhysical, initial, final, trials, seed)
		if err != nil {
			return Verdict{}, err
		}
		return Verdict{Equivalent: ok, Backend: "stabilizer"}, nil
	}
	if nPhysical > MaxQubits {
		return Verdict{}, fmt.Errorf("sim: non-Clifford circuit on %d qubits exceeds the dense backend's %d-qubit cap", nPhysical, MaxQubits)
	}
	ok, err := e.denseCompiled(sl, sp, nPhysical, initial, final, trials, seed)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Equivalent: ok, Backend: "dense"}, nil
}

// extendPerm builds a full physical-qubit permutation from the logical
// initial->final placement: perm[initial[v]] = final[v], with the remaining
// source positions mapped onto the remaining target positions in ascending
// order. Unmapped positions hold |0> on both sides of the comparison, so
// any bijective extension yields the same state.
func extendPerm(nPhysical int, initial, final []int) []int {
	perm := make([]int, nPhysical)
	srcUsed := make([]bool, nPhysical)
	dstUsed := make([]bool, nPhysical)
	for v := range initial {
		perm[initial[v]] = final[v]
		srcUsed[initial[v]] = true
		dstUsed[final[v]] = true
	}
	d := 0
	for s := 0; s < nPhysical; s++ {
		if srcUsed[s] {
			continue
		}
		for dstUsed[d] {
			d++
		}
		perm[s] = d
		dstUsed[d] = true
	}
	return perm
}

// stabCompiled runs the stabilizer compiled-equivalence check: embed a
// random logical stabilizer input at the initial positions, evolve with the
// logical circuit and undo the placement permutation on one side, run the
// physical circuit on the other, and compare tableaus exactly.
func (e *Engine) stabCompiled(logical, physical *circuit.Circuit, nPhysical int, initial, final []int, trials int, seed int64) (bool, error) {
	perm := extendPerm(nPhysical, initial, final)
	mappedLogical := logical.Remap(nPhysical, func(v int) int { return initial[v] })
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < trials; t++ {
		prep := randomStabilizerPrep(logical.NumQubits, rng)
		mappedPrep := prep.Remap(nPhysical, func(v int) int { return initial[v] })
		ref := stab.NewState(nPhysical)
		if err := ref.ApplyCircuit(mappedPrep); err != nil {
			return false, fmt.Errorf("sim: stabilizer prep: %w", err)
		}
		if err := ref.ApplyCircuit(mappedLogical); err != nil {
			return false, fmt.Errorf("sim: logical circuit: %w", err)
		}
		want := ref.PermuteQubits(perm)
		got := stab.NewState(nPhysical)
		if err := got.ApplyCircuit(mappedPrep); err != nil {
			return false, fmt.Errorf("sim: stabilizer prep: %w", err)
		}
		if err := got.ApplyCircuit(physical); err != nil {
			return false, fmt.Errorf("sim: physical circuit: %w", err)
		}
		if !got.Equal(want) {
			return false, nil
		}
	}
	return true, nil
}

// denseCompiled is CompiledEquivalent on the fused kernels: programs are
// compiled once and re-run per trial with parallel sweeps.
func (e *Engine) denseCompiled(logical, physical *circuit.Circuit, nPhysical int, initial, final []int, trials int, seed int64) (bool, error) {
	nLogical := logical.NumQubits
	pl, err := Fuse(logical, nLogical)
	if err != nil {
		return false, fmt.Errorf("sim: logical circuit: %w", err)
	}
	pp, err := Fuse(physical, nPhysical)
	if err != nil {
		return false, fmt.Errorf("sim: physical circuit: %w", err)
	}
	w := e.workers()
	for t := 0; t < trials; t++ {
		in := NewRandomState(nLogical, seed+int64(t))
		ref := in.Copy()
		if err := pl.Run(ref, w); err != nil {
			return false, fmt.Errorf("sim: logical circuit: %w", err)
		}
		want := embed(ref, nPhysical, final)
		got := embed(in, nPhysical, initial)
		if err := pp.Run(got, w); err != nil {
			return false, fmt.Errorf("sim: physical circuit: %w", err)
		}
		if !(got.Fidelity(want) >= 1-EquivalenceTolerance) { // NaN fails too
			return false, nil
		}
	}
	return true, nil
}
