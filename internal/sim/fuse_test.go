package sim

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
)

// TestFusedMatchesUnfused: the fused program must implement the same
// unitary as gate-at-a-time application, within float tolerance (fusion
// reorders floating-point products, so bit-identity is not expected here —
// the equivalence verdicts it feeds are tolerance-based).
func TestFusedMatchesUnfused(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		c := randomMixedCircuit(rng, n, 50)
		p, err := Fuse(c, n)
		if err != nil {
			t.Fatal(err)
		}
		want := NewRandomState(n, seed+500)
		got := want.Copy()
		if err := want.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(got, 1); err != nil {
			t.Fatal(err)
		}
		if f := got.Fidelity(want); f < 1-1e-11 {
			t.Fatalf("seed %d: fused fidelity %v", seed, f)
		}
	}
}

// TestFusedParallelBitIdentical: parallel sweeps must be bit-identical to
// the serial fused run at every worker count — the chunks are element-wise
// disjoint, so this is exact, not tolerance-based.
func TestFusedParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 10
	c := randomMixedCircuit(rng, n, 60)
	p, err := Fuse(c, n)
	if err != nil {
		t.Fatal(err)
	}
	base := NewRandomState(n, 77)
	serial := base.Copy()
	if err := p.Run(serial, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		par := base.Copy()
		// Force the parallel path even though 2^9 pairs is below the
		// automatic threshold.
		for i := range p.ops {
			op := &p.ops[i]
			n := op.iters
			chunk := (n + uint64(workers) - 1) / uint64(workers)
			done := make(chan struct{}, workers)
			starts := 0
			for lo := uint64(0); lo < n; lo += chunk {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				starts++
				go func(lo, hi uint64) {
					runFusedOpRange(par, op, lo, hi)
					done <- struct{}{}
				}(lo, hi)
			}
			for k := 0; k < starts; k++ {
				<-done
			}
		}
		for i := range serial.amp {
			if serial.amp[i] != par.amp[i] {
				t.Fatalf("workers=%d: amplitude %d differs", workers, i)
			}
		}
	}
}

func TestFuseCollapsesSingleQubitRuns(t *testing.T) {
	c := circuit.New(2)
	// Five 1q gates on qubit 0 and two on qubit 1 around one CX: the run
	// before the CX fuses per qubit, the run after fuses per qubit.
	c.H(0).T(0).S(0)
	c.H(1)
	c.CX(0, 1)
	c.T(0).H(0)
	c.S(1)
	p, err := Fuse(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The 1q-run pass fuses each maximal run per qubit; the block pass then
	// absorbs both pre-CX runs into the CX's 4x4 lift:
	// ops = block((HTS@0 ⊗ H@1) then CX), fused(q0: T,H), fused(q1: S).
	if len(p.ops) != 3 {
		t.Errorf("fused ops = %d, want 3", len(p.ops))
	}
}

func TestFuseLeavesLoneEntanglerUnblocked(t *testing.T) {
	// A CX with no absorbable neighbors must stay on the masked ctrl kernel:
	// lifting it to a 4x4 sweep would touch twice the amplitudes.
	c := circuit.New(3)
	c.CX(0, 1).CX(1, 2).CX(0, 2)
	p, err := Fuse(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ops) != 3 {
		t.Errorf("fused ops = %d, want 3 (lone entanglers must not be lifted)", len(p.ops))
	}
}

func TestFuseRejectsMeasure(t *testing.T) {
	c := circuit.New(1)
	c.Measure(0)
	if _, err := Fuse(c, 1); err == nil {
		t.Error("expected error fusing a Measure gate")
	}
}

func TestFuseRegisterLargerThanCircuit(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CX(0, 1)
	p, err := Fuse(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(4)
	if err := p.Run(s, 1); err != nil {
		t.Fatal(err)
	}
	want := NewState(4)
	if err := want.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	if s.Fidelity(want) < 1-1e-12 {
		t.Error("embedded program output differs")
	}
}
