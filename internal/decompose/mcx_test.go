package decompose

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/sim"
)

// refMCX builds the reference MCX circuit on the same wire layout.
func refMCX(n int, controls []int, target int) *circuit.Circuit {
	c := circuit.New(n)
	if len(controls) == 0 {
		c.X(target)
	} else {
		c.MCX(controls, target)
	}
	return c
}

func checkClassicalEqual(t *testing.T, what string, ref, dec *circuit.Circuit) {
	t.Helper()
	max := 0
	if ref.NumQubits > 14 {
		max = 1 << 14
	}
	ok, err := sim.SameClassicalFunction(ref, dec, max)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !ok {
		t.Fatalf("%s: truth tables differ", what)
	}
}

func TestMCXDirtySmallCases(t *testing.T) {
	// 0, 1, 2 controls need no ancilla.
	for nc := 0; nc <= 2; nc++ {
		n := nc + 1
		controls := make([]int, nc)
		for i := range controls {
			controls[i] = i
		}
		dec := circuit.New(n)
		if err := MCXDirty(dec, controls, nc, nil); err != nil {
			t.Fatal(err)
		}
		checkClassicalEqual(t, "mcx small", refMCX(n, controls, nc), dec)
	}
}

func TestMCXDirtyVChain(t *testing.T) {
	for nc := 3; nc <= 7; nc++ {
		n := 2*nc - 1 // controls + (nc-2) dirty + target
		controls := make([]int, nc)
		for i := range controls {
			controls[i] = i
		}
		dirty := make([]int, nc-2)
		for i := range dirty {
			dirty[i] = nc + i
		}
		target := n - 1
		dec := circuit.New(n)
		if err := MCXDirty(dec, controls, target, dirty); err != nil {
			t.Fatal(err)
		}
		checkClassicalEqual(t, "mcx dirty", refMCX(n, controls, target), dec)
		if got, want := dec.CountName(circuit.CCX), 4*(nc-2); got != want {
			t.Errorf("nc=%d: %d toffolis, want %d", nc, got, want)
		}
	}
}

func TestMCXDirtyInsufficientAncilla(t *testing.T) {
	dec := circuit.New(6)
	err := MCXDirty(dec, []int{0, 1, 2, 3}, 5, []int{4}) // needs 2 dirty
	if err == nil {
		t.Error("expected error")
	}
}

func TestMCXDirtyRestoresAncilla(t *testing.T) {
	// The V-chain must restore dirty ancillas for every ancilla input value;
	// SameClassicalFunction covers this because the reference MCX leaves
	// the ancilla wires untouched. Spot check explicitly for documentation.
	controls := []int{0, 1, 2, 3}
	dirty := []int{4, 5}
	dec := circuit.New(7)
	if err := MCXDirty(dec, controls, 6, dirty); err != nil {
		t.Fatal(err)
	}
	for in := uint64(0); in < 128; in++ {
		out, err := sim.ClassicalRun(dec, in)
		if err != nil {
			t.Fatal(err)
		}
		if (out>>4)&3 != (in>>4)&3 {
			t.Fatalf("ancilla not restored: in=%07b out=%07b", in, out)
		}
	}
}

func TestMCXCleanLadder(t *testing.T) {
	for nc := 3; nc <= 7; nc++ {
		n := 2*nc - 1
		controls := make([]int, nc)
		for i := range controls {
			controls[i] = i
		}
		clean := make([]int, nc-2)
		for i := range clean {
			clean[i] = nc + i
		}
		target := n - 1
		dec := circuit.New(n)
		if err := MCXClean(dec, controls, target, clean); err != nil {
			t.Fatal(err)
		}
		if got, want := dec.CountName(circuit.CCX), 2*nc-3; got != want {
			t.Errorf("nc=%d: %d toffolis, want %d", nc, got, want)
		}
		// Clean-ancilla circuits are only correct when ancillas start |0>:
		// check all control/target patterns with ancilla bits zero.
		for cin := uint64(0); cin < 1<<uint(nc+1); cin++ {
			in := cin&((1<<uint(nc))-1) | (cin>>uint(nc))<<uint(n-1)
			out, err := sim.ClassicalRun(dec, in)
			if err != nil {
				t.Fatal(err)
			}
			want := in
			if in&((1<<uint(nc))-1) == (1<<uint(nc))-1 {
				want ^= 1 << uint(n-1)
			}
			if out != want {
				t.Fatalf("nc=%d in=%b out=%b want=%b", nc, in, out, want)
			}
		}
	}
}

func TestMCXCleanInsufficientAncilla(t *testing.T) {
	dec := circuit.New(6)
	if err := MCXClean(dec, []int{0, 1, 2, 3}, 5, []int{4}); err == nil {
		t.Error("expected error")
	}
}

func TestMCXBorrowedSingleBit(t *testing.T) {
	// n controls with exactly ONE borrowed bit triggers the Lemma 7.3 split.
	for nc := 3; nc <= 8; nc++ {
		n := nc + 2 // controls + 1 borrowed + target
		controls := make([]int, nc)
		for i := range controls {
			controls[i] = i
		}
		borrowed := []int{nc}
		target := nc + 1
		dec := circuit.New(n)
		if err := MCXBorrowed(dec, controls, target, borrowed); err != nil {
			t.Fatal(err)
		}
		checkClassicalEqual(t, "mcx borrowed", refMCX(n, controls, target), dec)
	}
}

func TestMCXBorrowedNoBitFails(t *testing.T) {
	dec := circuit.New(5)
	if err := MCXBorrowed(dec, []int{0, 1, 2, 3}, 4, nil); err == nil {
		t.Error("expected error with zero borrowed bits")
	}
}

func TestMCXRandomWireAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 8
		perm := rng.Perm(n)
		controls := perm[:4]
		dirty := perm[4:6]
		target := perm[7]
		dec := circuit.New(n)
		if err := MCXDirty(dec, controls, target, dirty); err != nil {
			t.Fatal(err)
		}
		checkClassicalEqual(t, "mcx permuted wires", refMCX(n, controls, target), dec)
	}
}
