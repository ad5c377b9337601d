package sim

import (
	"math"
	"testing"

	"trios/internal/circuit"
)

func TestEquivalentDetectsEquality(t *testing.T) {
	a := circuit.New(2)
	a.H(0).CX(0, 1)
	// Same unitary built differently: CZ conjugated by H on the target.
	b := circuit.New(2)
	b.H(0).H(1).CZ(0, 1).H(1)
	ok, err := Equivalent(a, b, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("equivalent circuits reported different")
	}
}

func TestEquivalentDetectsDifference(t *testing.T) {
	a := circuit.New(2)
	a.H(0)
	b := circuit.New(2)
	b.H(1)
	ok, err := Equivalent(a, b, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("different circuits reported equivalent")
	}
}

func TestEquivalentIgnoresGlobalPhase(t *testing.T) {
	a := circuit.New(1)
	a.Z(0)
	b := circuit.New(1)
	b.U1(3.141592653589793, 0) // equals Z exactly
	b.RZ(6.283185307179586, 0) // 2pi rotation = -I, a pure global phase
	ok, err := Equivalent(a, b, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("global phase should not break equivalence")
	}
}

// TestEquivalenceFailsNaN: a gate with a NaN parameter fills the state with
// NaN, whose fidelity compares false against every threshold. Both checks
// must call that not equivalent. The parser refuses NaN, so the circuit is
// built directly.
func TestEquivalenceFailsNaN(t *testing.T) {
	bad := circuit.New(2)
	bad.U1(math.NaN(), 0).CX(0, 1)
	good := circuit.New(2)
	good.CX(0, 1)
	ok, err := Equivalent(bad, good, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Equivalent: u1(NaN) q[0]; cx q[0],q[1] reported equivalent to cx q[0],q[1]")
	}
	ok, err = CompiledEquivalent(good, bad, 2, []int{0, 1}, []int{0, 1}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("CompiledEquivalent: u1(NaN) q[0]; cx q[0],q[1] reported equivalent to cx q[0],q[1]")
	}
}

func TestEquivalentQubitMismatch(t *testing.T) {
	if _, err := Equivalent(circuit.New(1), circuit.New(2), 1, 1); err == nil {
		t.Error("expected qubit-count error")
	}
}

func TestCompiledEquivalentIdentityLayouts(t *testing.T) {
	src := circuit.New(2)
	src.H(0).CX(0, 1)
	phys := src.Copy()
	ok, err := CompiledEquivalent(src, phys, 4, []int{0, 1}, []int{0, 1}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("identical circuit under identity layout should verify")
	}
}

func TestCompiledEquivalentWithSwapPermutation(t *testing.T) {
	// Physical circuit routes via a SWAP: logical 0 ends at position 1.
	src := circuit.New(2)
	src.CX(0, 1)
	phys := circuit.New(3)
	phys.SWAP(0, 2)
	phys.CX(2, 1)
	ok, err := CompiledEquivalent(src, phys, 3, []int{0, 1}, []int{2, 1}, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("swap-routed circuit should verify under its final layout")
	}
	// Wrong final layout must fail.
	ok, err = CompiledEquivalent(src, phys, 3, []int{0, 1}, []int{0, 1}, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("wrong final layout should not verify")
	}
}

func TestCompiledEquivalentValidation(t *testing.T) {
	src := circuit.New(2)
	if _, err := CompiledEquivalent(src, src, 2, []int{0}, []int{0, 1}, 1, 1); err == nil {
		t.Error("expected layout length error")
	}
	big := circuit.New(5)
	if _, err := CompiledEquivalent(src, big, 3, []int{0, 1}, []int{0, 1}, 1, 1); err == nil {
		t.Error("expected physical size error")
	}
}

func TestNumQubits(t *testing.T) {
	if NewState(4).NumQubits() != 4 {
		t.Error("NumQubits wrong")
	}
}

func TestClassicalOutputRejectsSuperposition(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	if _, err := ClassicalOutput(c, 0); err == nil {
		t.Error("expected non-classical error")
	}
}
