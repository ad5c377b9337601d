package optimize

import (
	"math"
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/rewrite"
	"trios/internal/sim"
)

// These tests hold the compiler's optimizer — the rewrite engine the
// optimize passes run — to the cancellation and merging behaviour gate
// optimization must have (§2.4): inverse pairs and rotation runs collapse,
// commuting gates let pairs meet, and barriers, measures and non-commuting
// gates block them without changing the program.

// saturate runs the rewrite engine as the compiler's input pass does.
func saturate(c *circuit.Circuit) *circuit.Circuit {
	out, _ := rewrite.Saturate(c, rewrite.Options{})
	return out
}

func TestCancelInversePairs(t *testing.T) {
	c := circuit.New(2)
	c.H(0).H(0)         // cancels
	c.CX(0, 1).CX(0, 1) // cancels
	c.T(0).Tdg(0)       // cancels
	c.X(1)              // stays
	out := saturate(c)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.X {
		t.Errorf("optimized = %v", out.Gates)
	}
}

func TestCancelChains(t *testing.T) {
	// h t t† h: removing the inner pair exposes the outer pair.
	c := circuit.New(1)
	c.H(0).T(0).Tdg(0).H(0)
	out := saturate(c)
	if len(out.Gates) != 0 {
		t.Errorf("chain not fully cancelled: %v", out.Gates)
	}
}

func TestNoCancelAcrossInterveningGate(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).H(1).CX(0, 1) // H on the target blocks cancellation
	out := saturate(c)
	if len(out.Gates) != 3 {
		t.Errorf("incorrectly cancelled across intervening gate: %v", out.Gates)
	}
}

func TestCancelAcrossSpectatorGate(t *testing.T) {
	// A gate on an unrelated qubit does not block cancellation.
	c := circuit.New(3)
	c.CX(0, 1).H(2).CX(0, 1)
	out := saturate(c)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.H {
		t.Errorf("spectator blocked cancellation: %v", out.Gates)
	}
}

func TestBarrierBlocksCancellation(t *testing.T) {
	c := circuit.New(1)
	c.H(0).Barrier(0).H(0)
	out := saturate(c)
	if out.CountName(circuit.H) != 2 {
		t.Errorf("cancelled across barrier: %v", out.Gates)
	}
}

func TestMeasureBlocksCancellation(t *testing.T) {
	c := circuit.New(1)
	c.X(0).Measure(0).X(0)
	out := saturate(c)
	if out.CountName(circuit.X) != 2 {
		t.Errorf("cancelled across measure: %v", out.Gates)
	}
}

func TestRotationMerging(t *testing.T) {
	c := circuit.New(1)
	c.RZ(0.3, 0).RZ(0.4, 0)
	out := saturate(c)
	if len(out.Gates) != 1 || out.Gates[0].Params[0] != 0.7 {
		t.Errorf("rz merge: %v", out.Gates)
	}
	// Opposite rotations vanish entirely.
	c2 := circuit.New(1)
	c2.RX(0.5, 0).RX(-0.5, 0)
	if out2 := saturate(c2); len(out2.Gates) != 0 {
		t.Errorf("rx(+a) rx(-a) not removed: %v", out2.Gates)
	}
}

func TestSymmetricGateCancellation(t *testing.T) {
	c := circuit.New(2)
	c.CZ(0, 1).CZ(1, 0) // symmetric: cancels despite operand order
	c.SWAP(0, 1).SWAP(1, 0)
	out := saturate(c)
	if len(out.Gates) != 0 {
		t.Errorf("symmetric pairs not cancelled: %v", out.Gates)
	}
}

func TestCPInverseEitherOrder(t *testing.T) {
	c := circuit.New(2)
	c.CP(0.4, 0, 1).CP(-0.4, 1, 0)
	if out := saturate(c); len(out.Gates) != 0 {
		t.Errorf("cp pair not cancelled: %v", out.Gates)
	}
	c2 := circuit.New(2)
	c2.CP(0.4, 0, 1).CP(0.4, 1, 0) // same sign: must NOT cancel, only merge
	if out := saturate(c2); len(out.Gates) != 1 || out.Gates[0].Name != circuit.CP || math.Abs(out.Gates[0].Params[0]-0.8) > 1e-12 {
		t.Errorf("cp same-sign pair not merged into cp(0.8): %v", out.Gates)
	}
}

func TestCCXControlOrderCancellation(t *testing.T) {
	c := circuit.New(3)
	c.CCX(0, 1, 2).CCX(1, 0, 2) // controls swapped: same gate
	if out := saturate(c); len(out.Gates) != 0 {
		t.Errorf("ccx pair not cancelled: %v", out.Gates)
	}
	c2 := circuit.New(3)
	c2.CCX(0, 1, 2).CCX(0, 2, 1) // different target: must NOT cancel
	if out := saturate(c2); len(out.Gates) != 2 {
		t.Errorf("different-target ccx wrongly cancelled: %v", out.Gates)
	}
}

func TestIdentityAndNullRotationsDropped(t *testing.T) {
	c := circuit.New(1)
	c.I(0).RZ(0, 0).U1(0, 0).H(0)
	out := saturate(c)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.H {
		t.Errorf("identities not dropped: %v", out.Gates)
	}
}

func TestCancelPreservesSemanticsOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuitWithRedundancy(rng, 4, 40)
		out := saturate(c)
		if len(out.Gates) > len(c.Gates) {
			t.Fatal("optimizer grew the circuit")
		}
		ok, err := sim.Equivalent(c, out, 3, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("optimization changed semantics:\n%v\nvs\n%v", c, out)
		}
	}
}

func TestCancelShrinksRedundantCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	total, shrunk := 0, 0
	for trial := 0; trial < 10; trial++ {
		c := randomCircuitWithRedundancy(rng, 4, 40)
		out := saturate(c)
		total += len(c.Gates)
		shrunk += len(out.Gates)
	}
	if shrunk >= total {
		t.Errorf("no shrinkage on redundant circuits: %d -> %d", total, shrunk)
	}
}

// randomCircuitWithRedundancy injects immediate inverse pairs with high
// probability so the optimizer has real work to do.
func randomCircuitWithRedundancy(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		var g circuit.Gate
		switch rng.Intn(5) {
		case 0:
			g = circuit.NewGate(circuit.H, []int{rng.Intn(n)})
		case 1:
			g = circuit.NewGate(circuit.T, []int{rng.Intn(n)})
		case 2:
			g = circuit.NewGate(circuit.RZ, []int{rng.Intn(n)}, rng.Float64())
		case 3:
			p := rng.Perm(n)
			g = circuit.NewGate(circuit.CX, []int{p[0], p[1]})
		default:
			p := rng.Perm(n)
			g = circuit.NewGate(circuit.CCX, []int{p[0], p[1], p[2]})
		}
		c.Append(g)
		if rng.Float64() < 0.4 {
			c.Append(g.Inverse())
		}
	}
	return c
}

func TestCommutingCXCancellation(t *testing.T) {
	// cx(0,1) . cx(0,2) . cx(0,1): the middle gate shares only the control,
	// so the outer pair cancels.
	c := circuit.New(3)
	c.CX(0, 1).CX(0, 2).CX(0, 1)
	out := saturate(c)
	if len(out.Gates) != 1 || !out.Gates[0].Equal(circuit.NewGate(circuit.CX, []int{0, 2})) {
		t.Errorf("commuting cancellation failed: %v", out.Gates)
	}
}

func TestCommutingThroughZOnControl(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).T(0).RZ(0.5, 0).CX(0, 1)
	out := saturate(c)
	if out.CountName(circuit.CX) != 0 {
		t.Errorf("cx pair should cancel through Z-diagonal gates: %v", out.Gates)
	}
	// The intervening rotations survive, merged into one.
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.RZ || math.Abs(out.Gates[0].Params[0]-(math.Pi/4+0.5)) > 1e-12 {
		t.Errorf("intervening gates must survive as rz(pi/4+0.5): %v", out.Gates)
	}
}

func TestCommutingThroughXOnTarget(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).X(1).CX(0, 1)
	out := saturate(c)
	if out.CountName(circuit.CX) != 0 {
		t.Errorf("cx pair should cancel through X on target: %v", out.Gates)
	}
}

func TestNoCancellationThroughBlockingGate(t *testing.T) {
	// H on the control does not commute with CX.
	c := circuit.New(2)
	c.CX(0, 1).H(0).CX(0, 1)
	out := saturate(c)
	if out.CountName(circuit.CX) != 2 {
		t.Errorf("cancelled across non-commuting H: %v", out.Gates)
	}
	// X on the control and Z on the target do not commute with the CX, so
	// the pair may not simply cancel around them; the engine conjugates
	// them instead (X on the control becomes X on both wires, Z on the
	// target Z on both), which must keep the circuit's semantics.
	c2 := circuit.New(2)
	c2.CX(0, 1).X(0).CX(0, 1)
	c3 := circuit.New(2)
	c3.CX(0, 1).Z(1).CX(0, 1)
	for _, in := range []*circuit.Circuit{c2, c3} {
		out := saturate(in)
		ok, err := sim.Equivalent(in, out, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("rewrote %v across a non-commuting gate into inequivalent %v", in.Gates, out.Gates)
		}
	}
}

func TestCommutingToffoliCancellation(t *testing.T) {
	// A CZ on the two controls is Z-diagonal and commutes with the Toffoli's
	// control action, so the equal Toffolis around it cancel.
	c := circuit.New(3)
	c.CCX(0, 1, 2).CZ(0, 1).CCX(0, 1, 2)
	out := saturate(c)
	if out.CountName(circuit.CCX) != 0 {
		t.Errorf("ccx pair should cancel through Z-diagonal cz: %v", out.Gates)
	}
	if out.CountName(circuit.CZ) != 1 {
		t.Errorf("cz must survive: %v", out.Gates)
	}
}

func TestCXOnToffoliControlBlocks(t *testing.T) {
	// CX writes to the Toffoli's control wire, so it does NOT commute —
	// these must not cancel (verified: the two orders differ on |110>).
	c := circuit.New(3)
	c.CCX(0, 1, 2).CX(0, 1).CCX(0, 1, 2)
	out := saturate(c)
	if out.CountName(circuit.CCX) != 2 {
		t.Errorf("ccx wrongly cancelled across cx on its control wire: %v", out.Gates)
	}
}

func TestRCCXPairsCancelAdjacent(t *testing.T) {
	// A Margolus compute/uncompute pair on the same wires is an exact
	// identity, so it cancels.
	c := circuit.New(3)
	c.RCCX(0, 1, 2).RCCXdg(0, 1, 2)
	if out := saturate(c); len(out.Gates) != 0 {
		t.Errorf("rccx pair not cancelled: %v", out.Gates)
	}
	// The rules treat RCCX as opaque, so an intervening gate must block it.
	c2 := circuit.New(3)
	c2.RCCX(0, 1, 2).T(0).RCCXdg(0, 1, 2)
	if out := saturate(c2); out.CountName(circuit.RCCX) != 1 {
		t.Errorf("rccx wrongly cancelled across an intervening gate: %v", out.Gates)
	}
}

func TestMeasureBlocksCommutingCancellation(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).Measure(0).CX(0, 1)
	out := saturate(c)
	if out.CountName(circuit.CX) != 2 {
		t.Errorf("cancelled across measure: %v", out.Gates)
	}
}

func TestCancelCommutingPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 20; trial++ {
		c := randomCommuteCircuit(rng, 4, 35)
		out := saturate(c)
		if len(out.Gates) > len(c.Gates) {
			t.Fatal("optimizer grew circuit")
		}
		ok, err := sim.Equivalent(c, out, 3, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("commuting cancellation changed semantics (trial %d):\n%v\nvs\n%v", trial, c, out)
		}
	}
}

func TestCancelCommutingBeatsPlainCancel(t *testing.T) {
	// A circuit engineered so only commutation-aware cancellation fires:
	// no inverse pair is adjacent on its wires.
	c := circuit.New(3)
	c.CX(0, 1).T(0).CX(0, 2).CX(0, 1).Tdg(0).CX(0, 2)
	if out := saturate(c); len(out.Gates) != 0 {
		t.Errorf("everything should cancel: %v", out.Gates)
	}
}

func randomCommuteCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.X(rng.Intn(n))
		case 3:
			c.RZ(rng.Float64(), rng.Intn(n))
		case 4:
			c.SX(rng.Intn(n))
		case 5, 6:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		default:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		}
	}
	return c
}
