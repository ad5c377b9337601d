package decompose

import (
	"testing"

	"trios/internal/circuit"
	"trios/internal/sim"
	"trios/internal/topo"
)

func mustEquivalent(t *testing.T, a, b *circuit.Circuit, what string) {
	t.Helper()
	ok, err := sim.Equivalent(a, b, 4, 12345)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !ok {
		t.Fatalf("%s: circuits are not equivalent", what)
	}
}

func TestToffoli6MatchesCCX(t *testing.T) {
	// All orderings of the three qubits.
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		ref := circuit.New(3)
		ref.CCX(p[0], p[1], p[2])
		dec := circuit.New(3)
		Toffoli6(dec, p[0], p[1], p[2])
		mustEquivalent(t, ref, dec, "toffoli6")
		if n := dec.CountName(circuit.CX); n != 6 {
			t.Errorf("toffoli6 has %d CNOTs, want 6", n)
		}
	}
}

func TestCCZ8MatchesCCZ(t *testing.T) {
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		ref := circuit.New(3)
		ref.CCZ(p[0], p[1], p[2])
		dec := circuit.New(3)
		CCZ8(dec, p[0], p[1], p[2])
		mustEquivalent(t, ref, dec, "ccz8")
		if n := dec.CountName(circuit.CX); n != 8 {
			t.Errorf("ccz8 has %d CNOTs, want 8", n)
		}
	}
}

func TestCCZ8OnlyUsesLinePairs(t *testing.T) {
	dec := circuit.New(3)
	CCZ8(dec, 0, 1, 2) // middle = 1
	for _, g := range dec.Gates {
		if g.Name != circuit.CX {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if (a == 0 && b == 2) || (a == 2 && b == 0) {
			t.Fatalf("ccz8 uses the non-adjacent pair (0,2): %v", g)
		}
	}
}

func TestToffoli8AllTargets(t *testing.T) {
	// Line 0-1-2 with middle 1; target can be any position.
	for _, tgt := range []int{0, 1, 2} {
		ref := circuit.New(3)
		// Controls are the other two.
		var ctl []int
		for q := 0; q < 3; q++ {
			if q != tgt {
				ctl = append(ctl, q)
			}
		}
		ref.CCX(ctl[0], ctl[1], tgt)
		dec := circuit.New(3)
		Toffoli8(dec, 0, 1, 2, tgt)
		mustEquivalent(t, ref, dec, "toffoli8")
	}
}

func TestToffoli8PanicsOnBadTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := circuit.New(5)
	Toffoli8(c, 0, 1, 2, 4)
}

func TestSwap3CX(t *testing.T) {
	ref := circuit.New(2)
	ref.SWAP(0, 1)
	dec := circuit.New(2)
	Swap3CX(dec, 0, 1)
	mustEquivalent(t, ref, dec, "swap3cx")
}

func TestCCXGateAutoPicksSix(t *testing.T) {
	g := topo.FullyConnected(3)
	out := circuit.New(3)
	err := CCXGate(out, circuit.NewGate(circuit.CCX, []int{0, 1, 2}), g, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if n := out.CountName(circuit.CX); n != 6 {
		t.Errorf("triangle trio used %d CNOTs, want 6", n)
	}
}

func TestCCXGateAutoPicksEightOnLine(t *testing.T) {
	g := topo.Line(3)
	out := circuit.New(3)
	err := CCXGate(out, circuit.NewGate(circuit.CCX, []int{0, 2, 1}), g, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if n := out.CountName(circuit.CX); n != 8 {
		t.Errorf("linear trio used %d CNOTs, want 8", n)
	}
	// And correctness: CCX(0,2 -> 1).
	ref := circuit.New(3)
	ref.CCX(0, 2, 1)
	mustEquivalent(t, ref, out, "auto linear")
	// All CNOTs must respect the line.
	for _, gg := range out.Gates {
		if gg.Name == circuit.CX && !g.Connected(gg.Qubits[0], gg.Qubits[1]) {
			t.Errorf("cnot on non-edge: %v", gg)
		}
	}
}

func TestCCXGateDisconnectedTrioFails(t *testing.T) {
	g := topo.Line(5)
	out := circuit.New(5)
	err := CCXGate(out, circuit.NewGate(circuit.CCX, []int{0, 2, 4}), g, Auto)
	if err == nil {
		t.Error("expected error for disconnected trio")
	}
}

func TestCCXGateSixIgnoresConnectivity(t *testing.T) {
	g := topo.Line(3)
	out := circuit.New(3)
	if err := CCXGate(out, circuit.NewGate(circuit.CCX, []int{0, 1, 2}), g, Six); err != nil {
		t.Fatal(err)
	}
	ref := circuit.New(3)
	ref.CCX(0, 1, 2)
	mustEquivalent(t, ref, out, "forced six")
}

func TestToffoliModeString(t *testing.T) {
	if Auto.String() != "auto" || Six.String() != "6-cnot" || Eight.String() != "8-cnot" {
		t.Error("mode strings wrong")
	}
	if ToffoliMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}
