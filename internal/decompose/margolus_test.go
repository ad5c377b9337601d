package decompose

import (
	"math"
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/sim"
	"trios/internal/topo"
)

func TestMargolusBasisActionMatchesToffoli(t *testing.T) {
	// The Margolus gate permutes basis states exactly like CCX (phases may
	// differ): verify via probabilities on each basis input.
	dec := circuit.New(3)
	Margolus(dec, 0, 1, 2)
	for in := uint64(0); in < 8; in++ {
		out, err := sim.ClassicalOutput(dec, in)
		if err != nil {
			t.Fatalf("input %03b: %v", in, err)
		}
		want := in
		if in&3 == 3 {
			want ^= 4
		}
		if out != want {
			t.Fatalf("margolus(%03b) = %03b, want %03b", in, out, want)
		}
	}
}

func TestMargolusIsRelativePhaseOnly(t *testing.T) {
	// Margolus must NOT equal CCX as a unitary (it has relative phases);
	// if it did, the 3-CNOT construction would beat the known lower bound.
	ref := circuit.New(3)
	ref.CCX(0, 1, 2)
	dec := circuit.New(3)
	Margolus(dec, 0, 1, 2)
	ok, err := sim.Equivalent(ref, dec, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("margolus should differ from CCX by relative phases")
	}
}

func TestMargolusSelfInverse(t *testing.T) {
	c := circuit.New(3)
	Margolus(c, 0, 1, 2)
	Margolus(c, 0, 1, 2)
	id := circuit.New(3)
	ok, err := sim.Equivalent(id, c, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("margolus applied twice should be the identity")
	}
}

func TestRCCXGateSimMatchesDecomposition(t *testing.T) {
	// The simulator's native RCCX must equal the emitted Margolus sequence.
	a := circuit.New(3)
	a.RCCX(0, 1, 2)
	b := circuit.New(3)
	Margolus(b, 0, 1, 2)
	ok, err := sim.Equivalent(a, b, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("sim RCCX differs from Margolus sequence")
	}
	adg := circuit.New(3)
	adg.RCCXdg(0, 1, 2)
	ok, err = sim.Equivalent(adg, b, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("sim RCCXdg should equal RCCX (self-inverse gate)")
	}
}

// TestMCXCleanRPExactlyEqualsMCX is the load-bearing check: the AND-ladder
// with relative-phase compute/uncompute Toffolis must equal the exact MCX
// as a *unitary* (not just on basis states) — the relative phases cancel.
func TestMCXCleanRPExactlyEqualsMCX(t *testing.T) {
	for nc := 3; nc <= 6; nc++ {
		n := 2*nc - 1
		controls := seqInts(0, nc)
		clean := seqInts(nc, nc-2)
		target := n - 1

		rp := circuit.New(n)
		if err := MCXCleanRP(rp, controls, target, clean); err != nil {
			t.Fatal(err)
		}
		exact := circuit.New(n)
		if err := MCXClean(exact, controls, target, clean); err != nil {
			t.Fatal(err)
		}
		// Clean-ancilla constructions agree only on the ancilla=|0>
		// subspace; compare embedded states with ancillas zeroed.
		for trial := 0; trial < 3; trial++ {
			place := append(append([]int{}, controls...), target)
			sa, err := randomStateOn(n, place, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			sb := sa.Copy()
			if err := sa.ApplyCircuit(rp); err != nil {
				t.Fatal(err)
			}
			if err := sb.ApplyCircuit(exact); err != nil {
				t.Fatal(err)
			}
			if sa.Fidelity(sb) < 1-1e-9 {
				t.Fatalf("nc=%d: RP ladder differs from exact MCX (fidelity %v)", nc, sa.Fidelity(sb))
			}
		}
		// And the RP version must be cheaper in two-qubit gates.
		if rpc, exc := rp.CollectStats(), exact.CollectStats(); rpc.Toffolis != exc.Toffolis {
			t.Errorf("nc=%d: toffoli counts %d vs %d", nc, rpc.Toffolis, exc.Toffolis)
		}
	}
}

func TestMCXCleanRPValidation(t *testing.T) {
	c := circuit.New(6)
	if err := MCXCleanRP(c, []int{0, 1, 2, 3}, 5, []int{4}); err == nil {
		t.Error("expected ancilla shortage error")
	}
	c2 := circuit.New(3)
	if err := MCXCleanRP(c2, []int{0, 1}, 2, nil); err != nil {
		t.Errorf("2-control case should degrade to ccx: %v", err)
	}
}

func TestMappingAwareLowersRCCX(t *testing.T) {
	line := topo.Line(3)
	c := circuit.New(3)
	c.RCCX(0, 2, 1) // target 1 = middle of the line
	out, err := MappingAware(c, line, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.CountName(circuit.CX); got != 3 {
		t.Errorf("rccx lowered to %d CNOTs, want 3", got)
	}
	// Wrong middle must error (router is supposed to prevent it).
	c2 := circuit.New(3)
	c2.RCCX(0, 1, 2)
	if _, err := MappingAware(c2, line, Auto); err == nil {
		t.Error("expected error for rccx with endpoint target")
	}
}

// randomStateOn prepares a seeded random entangled state on the qubits in
// place of an n-qubit register, leaving every other qubit |0>: three
// layers of random u3 rotations, each followed by a CX chain along place.
func randomStateOn(n int, place []int, seed int64) (*sim.State, error) {
	rng := rand.New(rand.NewSource(seed))
	prep := circuit.New(n)
	for layer := 0; layer < 3; layer++ {
		for _, q := range place {
			prep.U3(math.Pi*rng.Float64(), 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64(), q)
		}
		for i := 1; i < len(place); i++ {
			prep.CX(place[i-1], place[i])
		}
	}
	s := sim.NewState(n)
	return s, s.ApplyCircuit(prep)
}

func seqInts(start, count int) []int {
	s := make([]int, count)
	for i := range s {
		s[i] = start + i
	}
	return s
}
