package decompose

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/sim"
	"trios/internal/topo"
)

func TestKeepToffoliPreservesCCX(t *testing.T) {
	c := circuit.New(3)
	c.H(0).CCX(0, 1, 2).CX(1, 2)
	out, err := KeepToffoli(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.CountName(circuit.CCX) != 1 {
		t.Error("CCX should survive the first pass")
	}
	mustEquivalent(t, c, out, "keep toffoli")
}

func TestKeepToffoliLowersCCZ(t *testing.T) {
	c := circuit.New(3)
	c.CCZ(0, 1, 2)
	out, err := KeepToffoli(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.CountName(circuit.CCZ) != 0 || out.CountName(circuit.CCX) != 1 {
		t.Errorf("ccz not converted: %v", out)
	}
	mustEquivalent(t, c, out, "ccz to ccx")
}

func TestKeepToffoliExpandsMCX(t *testing.T) {
	c := circuit.New(7)
	c.MCX([]int{0, 1, 2, 3}, 4) // wires 5, 6 free for borrowing
	out, err := KeepToffoli(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.CountName(circuit.MCX) != 0 {
		t.Error("MCX should be expanded")
	}
	ok, err := sim.SameClassicalFunction(c, out, 0)
	if err != nil || !ok {
		t.Fatalf("mcx expansion wrong: %v %v", ok, err)
	}
}

// TestKeepToffoliMCXBorrowsPastRegister: an mcx that spans its whole
// register borrows the wire one past it, and every basis state of all six
// wires, that wire included, maps as the mcx maps it.
func TestKeepToffoliMCXBorrowsPastRegister(t *testing.T) {
	c := circuit.New(5)
	c.MCX([]int{0, 1, 2, 3}, 4) // no free wire
	out, err := KeepToffoli(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumQubits != 6 || out.CountName(circuit.MCX) != 0 {
		t.Fatalf("want the mcx expanded onto 6 wires, got %d wires and %d mcx", out.NumQubits, out.CountName(circuit.MCX))
	}
	want := circuit.New(6)
	want.MCX([]int{0, 1, 2, 3}, 4)
	ok, err := sim.SameClassicalFunction(want, out, 0)
	if err != nil || !ok {
		t.Fatalf("mcx expansion wrong: %v %v", ok, err)
	}
}

func TestToffoliAllSixAndEight(t *testing.T) {
	c := circuit.New(4)
	c.H(0).CCX(0, 1, 2).CX(2, 3).CCX(1, 2, 3)
	for _, mode := range []ToffoliMode{Six, Eight} {
		out, err := ToffoliAll(c, mode)
		if err != nil {
			t.Fatal(err)
		}
		if out.CountName(circuit.CCX) != 0 {
			t.Errorf("%v: toffolis remain", mode)
		}
		mustEquivalent(t, c, out, "toffoli all "+mode.String())
		wantCX := map[ToffoliMode]int{Six: 13, Eight: 17}[mode] // 2 toffolis + 1 native
		if got := out.CountName(circuit.CX); got != wantCX {
			t.Errorf("%v: %d CNOTs, want %d", mode, got, wantCX)
		}
	}
}

func TestMappingAwareUsesPlacement(t *testing.T) {
	// CCX placed on a triangle in clusters -> 6 CNOT; on a line -> 8.
	cl := topo.Clusters5x4()
	c := circuit.New(20)
	c.CCX(0, 1, 2)
	out, err := MappingAware(c, cl, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.CountName(circuit.CX); got != 6 {
		t.Errorf("triangle placement used %d CNOTs, want 6", got)
	}

	line := topo.Line20()
	out2, err := MappingAware(c, line, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if got := out2.CountName(circuit.CX); got != 8 {
		t.Errorf("line placement used %d CNOTs, want 8", got)
	}
}

func TestMappingAwareDisconnectedFails(t *testing.T) {
	line := topo.Line20()
	c := circuit.New(20)
	c.CCX(0, 5, 10)
	if _, err := MappingAware(c, line, Auto); err == nil {
		t.Error("expected error for unrouted trio")
	}
}

func TestLowerToBasisGateSet(t *testing.T) {
	c := circuit.New(3)
	c.H(0).X(1).Y(2).Z(0).S(1).Sdg(2).T(0).Tdg(1).SX(2).SXdg(0)
	c.RX(0.3, 0).RY(0.4, 1).RZ(0.5, 2)
	c.CX(0, 1).CZ(1, 2).CP(0.7, 0, 2).SWAP(0, 1)
	c.Measure(2)
	out, err := LowerToBasis(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range out.Gates {
		switch g.Name {
		case circuit.U1, circuit.U2, circuit.U3, circuit.CX, circuit.Measure, circuit.Barrier:
		default:
			t.Fatalf("gate %v not in IBM basis", g)
		}
	}
	// Unitary part must be preserved: strip the measure for comparison.
	ref := c.Copy()
	ref.Gates = ref.Gates[:len(ref.Gates)-1]
	low := out.Copy()
	low.Gates = low.Gates[:len(low.Gates)-1]
	mustEquivalent(t, ref, low, "lower to basis")
}

func TestLowerToBasisRejectsToffoli(t *testing.T) {
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	if _, err := LowerToBasis(c); err == nil {
		t.Error("expected error: CCX must be decomposed before lowering")
	}
}

func TestLowerToBasisDropsIdentity(t *testing.T) {
	c := circuit.New(1)
	c.I(0).H(0)
	out, err := LowerToBasis(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Gates) != 1 {
		t.Errorf("identity not dropped: %v", out.Gates)
	}
}

// Random unitary circuits survive a full decompose pipeline:
// KeepToffoli then ToffoliAll then LowerToBasis, preserving semantics.
func TestFullLoweringPipelineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		c := randomMixedCircuit(rng, 5, 25)
		step1, err := KeepToffoli(c)
		if err != nil {
			t.Fatal(err)
		}
		step2, err := ToffoliAll(step1, Six)
		if err != nil {
			t.Fatal(err)
		}
		final, err := LowerToBasis(step2)
		if err != nil {
			t.Fatal(err)
		}
		mustEquivalent(t, c, final, "full pipeline")
		for _, g := range final.Gates {
			switch g.Name {
			case circuit.U1, circuit.U2, circuit.U3, circuit.CX:
			default:
				t.Fatalf("non-basis gate %v after full lowering", g)
			}
		}
	}
}

func randomMixedCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(7) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.RZ(rng.Float64()*6, rng.Intn(n))
		case 3:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		case 4:
			p := rng.Perm(n)
			c.CZ(p[0], p[1])
		case 5:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		case 6:
			p := rng.Perm(n)
			c.CCZ(p[0], p[1], p[2])
		}
	}
	return c
}

// TestExpansionPassesPresized: each expansion pass sizes its output from
// its input, so on these inputs the output fills exactly the capacity it
// started with and is never regrown.
func TestExpansionPassesPresized(t *testing.T) {
	logical := circuit.New(4)
	logical.H(0).CCZ(0, 1, 2).CCX(2, 1, 0).CX(0, 3).RCCX(0, 2, 1).RCCXdg(0, 2, 1).CCX(1, 2, 3).T(3)
	routed := circuit.New(4) // on Line(4): every trio is a line, no triangle
	routed.H(0).CCX(0, 1, 2).SWAP(1, 2).CCX(3, 2, 1).RCCX(0, 2, 1).CX(2, 3)
	lowerable := circuit.New(3)
	lowerable.H(0).SWAP(0, 1).CZ(1, 2).CP(0.5, 0, 2).RZ(0.25, 1).CX(2, 0).Measure(0)
	line := topo.Line(4)

	check := func(what string, out *circuit.Circuit, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(out.Gates) != cap(out.Gates) {
			t.Errorf("%s: %d gates in capacity %d", what, len(out.Gates), cap(out.Gates))
		}
	}
	out, err := KeepToffoli(logical)
	check("KeepToffoli", out, err)
	for _, mode := range []ToffoliMode{Auto, Six, Eight} {
		out, err = ToffoliAll(routed, mode)
		check("ToffoliAll "+mode.String(), out, err)
		out, err = MappingAware(routed, line, mode)
		check("MappingAware "+mode.String(), out, err)
		out, err = LowerToBasis(out)
		check("LowerToBasis "+mode.String(), out, err)
	}
	out, err = LowerToBasis(lowerable)
	check("LowerToBasis", out, err)
}
