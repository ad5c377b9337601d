package rewrite

import (
	"math"
	"math/rand"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/qasm"
	"trios/internal/sim"
)

func gatesOf(c *circuit.Circuit) []string {
	out := make([]string, len(c.Gates))
	for i, g := range c.Gates {
		out[i] = g.String()
	}
	return out
}

func mustEquivalent(t *testing.T, a, b *circuit.Circuit, seed int64) {
	t.Helper()
	ok, err := sim.Equivalent(a, b, 3, seed)
	if err != nil {
		t.Fatalf("equivalence check: %v", err)
	}
	if !ok {
		t.Fatalf("not equivalent:\n in: %v\nout: %v", gatesOf(a), gatesOf(b))
	}
}

// loweredTwoQubitWeight estimates the CX count a circuit lowers to: SWAP is
// 3 CX, CP is 2, Toffoli-class gates their standard decompositions. This is
// the metric rewrites must never increase — raw two-qubit counts are the
// wrong invariant because e.g. the CCX absorption trades two Toffolis
// (~12 lowered CX) for one literal CX.
func loweredTwoQubitWeight(c *circuit.Circuit) int {
	w := 0
	for _, g := range c.Gates {
		switch g.Name {
		case circuit.CX, circuit.CZ:
			w++
		case circuit.CP:
			w += 2
		case circuit.SWAP, circuit.RCCX, circuit.RCCXdg:
			w += 3
		case circuit.CCX, circuit.CCZ:
			w += 6
		case circuit.MCX:
			w += 6 * (len(g.Qubits) - 1)
		}
	}
	return w
}

func oneQubitCount(c *circuit.Circuit) int {
	n := 0
	for _, g := range c.Gates {
		if len(g.Qubits) == 1 && !g.IsPseudo() {
			n++
		}
	}
	return n
}

// saturateChecked runs Saturate and asserts the invariants every rewrite
// must keep: sim-equivalence to the input and non-increasing gate counts
// (total, and two-qubit in lowered-CX weight).
func saturateChecked(t *testing.T, c *circuit.Circuit, seed int64) (*circuit.Circuit, Stats) {
	t.Helper()
	out, st := Saturate(c, Options{})
	if err := out.Validate(); err != nil {
		t.Fatalf("saturated circuit invalid: %v", err)
	}
	if st.GatesOut > st.GatesIn {
		t.Fatalf("gate count increased: %d -> %d", st.GatesIn, st.GatesOut)
	}
	if wi, wo := loweredTwoQubitWeight(c), loweredTwoQubitWeight(out); wo > wi {
		t.Fatalf("lowered two-qubit weight increased: %d -> %d", wi, wo)
	}
	mustEquivalent(t, c, out, seed)
	return out, st
}

func TestAdjacentInversePairsCancel(t *testing.T) {
	c := circuit.New(2)
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
	c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
	c.Append(circuit.NewGate(circuit.T, []int{1}))
	c.Append(circuit.NewGate(circuit.Tdg, []int{1}))
	out, _ := saturateChecked(t, c, 1)
	if len(out.Gates) != 0 {
		t.Fatalf("expected empty circuit, got %v", gatesOf(out))
	}
}

func TestCancellationAcrossCommutingWindow(t *testing.T) {
	// cx(0,1) · z(0) · u1(1-on-target? no: z on control commutes) · cx(0,1)
	c := circuit.New(2)
	c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
	c.Append(circuit.NewGate(circuit.Z, []int{0})) // control, Z axis: commutes
	c.Append(circuit.NewGate(circuit.X, []int{1})) // target, X axis: commutes
	c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
	out, _ := saturateChecked(t, c, 2)
	if got := len(out.Gates); got != 2 {
		t.Fatalf("expected the cx pair to cancel across the window, got %v", gatesOf(out))
	}
}

func TestRotationMergeNormalizesModTwoPi(t *testing.T) {
	// The legacy gap: rz(π)·rz(π) merges to rz(2π), which is identity up
	// to global phase but |2π| > 1e-15 so isNullRotation never dropped it.
	for _, name := range []circuit.Name{circuit.RZ, circuit.RX, circuit.RY, circuit.U1} {
		c := circuit.New(1)
		c.Append(circuit.NewGate(name, []int{0}, math.Pi))
		c.Append(circuit.NewGate(name, []int{0}, math.Pi))
		out, _ := saturateChecked(t, c, 3)
		if len(out.Gates) != 0 {
			t.Fatalf("%v(π)·%v(π) should vanish mod 2π, got %v", name, name, gatesOf(out))
		}
	}
	// And a bare 2π rotation dies on its own.
	c := circuit.New(1)
	c.Append(circuit.NewGate(circuit.RZ, []int{0}, 2*math.Pi))
	out, _ := saturateChecked(t, c, 4)
	if len(out.Gates) != 0 {
		t.Fatalf("rz(2π) should be dropped, got %v", gatesOf(out))
	}
}

func TestPhaseClassMerging(t *testing.T) {
	// t·t -> s, s·s -> z, and mixing with u1 stays u1.
	c := circuit.New(1)
	c.Append(circuit.NewGate(circuit.T, []int{0}))
	c.Append(circuit.NewGate(circuit.T, []int{0}))
	out, _ := saturateChecked(t, c, 5)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.S {
		t.Fatalf("t·t should merge to s, got %v", gatesOf(out))
	}

	c = circuit.New(1)
	c.Append(circuit.NewGate(circuit.U1, []int{0}, math.Pi/4))
	c.Append(circuit.NewGate(circuit.T, []int{0}))
	out, _ = saturateChecked(t, c, 6)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.U1 {
		t.Fatalf("u1 participant should keep the u1 name, got %v", gatesOf(out))
	}
}

func TestPhaseMergeAcrossCommutingWindow(t *testing.T) {
	// u1(0) ... cx with 0 as control (Z axis on 0) ... u1(0): merges.
	c := circuit.New(2)
	c.Append(circuit.NewGate(circuit.U1, []int{0}, 0.3))
	c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
	c.Append(circuit.NewGate(circuit.U1, []int{0}, 0.4))
	out, _ := saturateChecked(t, c, 7)
	if got := len(out.Gates); got != 2 {
		t.Fatalf("u1s should merge across the cx control, got %v", gatesOf(out))
	}
}

func TestHXHBasisIdentity(t *testing.T) {
	c := circuit.New(1)
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	c.Append(circuit.NewGate(circuit.X, []int{0}))
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	out, _ := saturateChecked(t, c, 8)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.Z {
		t.Fatalf("h·x·h should rewrite to z, got %v", gatesOf(out))
	}
}

func TestCXCZConjugation(t *testing.T) {
	c := circuit.New(2)
	c.Append(circuit.NewGate(circuit.H, []int{1}))
	c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
	c.Append(circuit.NewGate(circuit.H, []int{1}))
	out, _ := saturateChecked(t, c, 9)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.CZ {
		t.Fatalf("h·cx·h should rewrite to cz, got %v", gatesOf(out))
	}

	c = circuit.New(2)
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	c.Append(circuit.NewGate(circuit.CZ, []int{0, 1}))
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	out, _ = saturateChecked(t, c, 10)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.CX {
		t.Fatalf("h·cz·h should rewrite to cx, got %v", gatesOf(out))
	}
}

func TestSwapCXAbsorption(t *testing.T) {
	for _, swapFirst := range []bool{true, false} {
		c := circuit.New(2)
		if swapFirst {
			c.Append(circuit.NewGate(circuit.SWAP, []int{0, 1}))
			c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
		} else {
			c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
			c.Append(circuit.NewGate(circuit.SWAP, []int{0, 1}))
		}
		out, _ := saturateChecked(t, c, 11)
		if len(out.Gates) != 2 || out.Gates[0].Name != circuit.CX || out.Gates[1].Name != circuit.CX {
			t.Fatalf("swap+cx should fuse into two cx, got %v", gatesOf(out))
		}
	}
}

func TestCXSandwichAbsorption(t *testing.T) {
	cases := []struct {
		middle circuit.Name
		onCtrl bool
	}{
		{circuit.X, true}, {circuit.Y, true},
		{circuit.Z, false}, {circuit.Y, false},
	}
	for _, tc := range cases {
		c := circuit.New(2)
		c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
		q := 1
		if tc.onCtrl {
			q = 0
		}
		c.Append(circuit.NewGate(tc.middle, []int{q}))
		c.Append(circuit.NewGate(circuit.CX, []int{0, 1}))
		out, _ := saturateChecked(t, c, 12)
		for _, g := range out.Gates {
			if g.Name == circuit.CX {
				t.Fatalf("cx·%v(%d)·cx should shed both cx, got %v", tc.middle, q, gatesOf(out))
			}
		}
	}
}

func TestCCXControlXAbsorption(t *testing.T) {
	c := circuit.New(3)
	c.Append(circuit.NewGate(circuit.CCX, []int{0, 1, 2}))
	c.Append(circuit.NewGate(circuit.X, []int{0}))
	c.Append(circuit.NewGate(circuit.CCX, []int{0, 1, 2}))
	out, _ := saturateChecked(t, c, 13)
	for _, g := range out.Gates {
		if g.Name == circuit.CCX {
			t.Fatalf("ccx·x(c)·ccx should shed both Toffolis, got %v", gatesOf(out))
		}
	}
}

func TestCCXAbsorptionRespectsAdjacency(t *testing.T) {
	c := circuit.New(3)
	c.Append(circuit.NewGate(circuit.CCX, []int{0, 1, 2}))
	c.Append(circuit.NewGate(circuit.X, []int{0}))
	c.Append(circuit.NewGate(circuit.CCX, []int{0, 1, 2}))
	// The rewrite would synthesize cx(1,2); forbid that pair and the rule
	// must not fire.
	out, _ := Saturate(c, Options{AdjacentOK: func(a, b int) bool { return false }})
	ccx := 0
	for _, g := range out.Gates {
		if g.Name == circuit.CCX {
			ccx++
		}
	}
	if ccx != 2 {
		t.Fatalf("adjacency-gated rewrite fired anyway: %v", gatesOf(out))
	}
}

func TestCPMergeAndCZCanonicalization(t *testing.T) {
	// cp(θ)·cp(π−θ) on the same pair merges to cp(π) = cz: one fewer
	// two-qubit gate, and cz lowers to 1 CX where cp costs 2.
	c := circuit.New(2)
	c.Append(circuit.NewGate(circuit.CP, []int{0, 1}, 0.7))
	c.Append(circuit.NewGate(circuit.CP, []int{1, 0}, math.Pi-0.7))
	out, _ := saturateChecked(t, c, 14)
	if len(out.Gates) != 1 || out.Gates[0].Name != circuit.CZ {
		t.Fatalf("cp pair should merge to cz, got %v", gatesOf(out))
	}
}

func TestMeasureAndBarrierBlockRewrites(t *testing.T) {
	c := circuit.New(1)
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	c.Append(circuit.NewGate(circuit.Barrier, []int{0}))
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	out, _ := Saturate(c, Options{})
	if len(out.Gates) != 3 {
		t.Fatalf("barrier must block cancellation, got %v", gatesOf(out))
	}

	c = circuit.New(1)
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	c.Append(circuit.NewGate(circuit.Measure, []int{0}))
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	out, _ = Saturate(c, Options{})
	if len(out.Gates) != 3 {
		t.Fatalf("measure must block cancellation, got %v", gatesOf(out))
	}
}

func TestBudgetGuardStopsEarly(t *testing.T) {
	c := circuit.New(1)
	for i := 0; i < 100; i++ {
		c.Append(circuit.NewGate(circuit.H, []int{0}))
	}
	out, st := Saturate(c, Options{MaxRewrites: 3})
	if !st.BudgetExhausted {
		t.Fatal("expected budget exhaustion")
	}
	if st.Rewrites != 3 {
		t.Fatalf("expected exactly 3 rewrites, got %d", st.Rewrites)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("budget-stopped circuit invalid: %v", err)
	}
	mustEquivalent(t, c, out, 15)
}

// randomCircuit builds a random Clifford+T-ish circuit over n qubits,
// including the structured patterns the rules target.
func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	oneQ := []circuit.Name{
		circuit.H, circuit.X, circuit.Y, circuit.Z, circuit.S, circuit.Sdg,
		circuit.T, circuit.Tdg, circuit.SX, circuit.SXdg,
	}
	for len(c.Gates) < gates {
		q := rng.Intn(n)
		switch k := rng.Intn(10); {
		case k < 4:
			c.Append(circuit.NewGate(oneQ[rng.Intn(len(oneQ))], []int{q}))
		case k < 6:
			r := []circuit.Name{circuit.RX, circuit.RY, circuit.RZ, circuit.U1}[rng.Intn(4)]
			c.Append(circuit.NewGate(r, []int{q}, float64(rng.Intn(8))*math.Pi/4+rng.Float64()*0.01))
		case k < 8:
			p := (q + 1 + rng.Intn(n-1)) % n
			c.Append(circuit.NewGate(circuit.CX, []int{q, p}))
		case k < 9:
			p := (q + 1 + rng.Intn(n-1)) % n
			g := []circuit.Name{circuit.CZ, circuit.SWAP}[rng.Intn(2)]
			c.Append(circuit.NewGate(g, []int{q, p}))
		default:
			p := (q + 1 + rng.Intn(n-1)) % n
			c.Append(circuit.NewGate(circuit.CP, []int{q, p}, rng.Float64()*2*math.Pi))
		}
		// Occasionally mirror the last gate to seed cancellation chains.
		if rng.Intn(3) == 0 && len(c.Gates) > 0 {
			c.Append(c.Gates[len(c.Gates)-1].Inverse())
		}
	}
	return c
}

func TestSaturateEquivalentOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for i := 0; i < trials; i++ {
		n := 2 + rng.Intn(5)
		c := randomCircuit(rng, n, 20+rng.Intn(120))
		saturateChecked(t, c, int64(1000+i))
	}
}

// legacyRandomCounts freezes what the pre-rewrite optimizer (commutation-
// aware cancel, then plain cancel) left of each random circuit in
// TestSaturateNeverWorseThanLegacyOnRandomCircuits: its lowered two-qubit
// weight and its one-qubit count, trial by trial.
var legacyRandomCounts = [25][2]int{
	{16, 27}, {32, 22}, {10, 15}, {37, 31}, {21, 18},
	{43, 22}, {7, 18}, {10, 9}, {3, 7}, {25, 32},
	{25, 5}, {21, 17}, {15, 22}, {36, 30}, {19, 23},
	{8, 11}, {29, 26}, {11, 10}, {7, 9}, {37, 27},
	{15, 8}, {31, 20}, {3, 3}, {33, 22}, {29, 34},
}

func TestSaturateNeverWorseThanLegacyOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i, legacy := range legacyRandomCounts {
		n := 2 + rng.Intn(5)
		c := randomCircuit(rng, n, 20+rng.Intn(100))
		sat, _ := Saturate(c, Options{})
		// Raw gate counts are not comparable (a SWAP the engine fused
		// into two CX is one gate in legacy's output but three lowered
		// CX); compare lowered two-qubit weight and one-qubit counts.
		if ws, wl := loweredTwoQubitWeight(sat), legacy[0]; ws > wl {
			t.Fatalf("trial %d: saturate two-qubit weight %d > legacy %d\n in: %v\nsat: %v",
				i, ws, wl, gatesOf(c), gatesOf(sat))
		}
		if os, ol := oneQubitCount(sat), legacy[1]; os > ol {
			t.Fatalf("trial %d: saturate one-qubit count %d > legacy %d\n in: %v\nsat: %v",
				i, os, ol, gatesOf(c), gatesOf(sat))
		}
	}
}

func TestSaturateRegistryBenchmarksEquivalent(t *testing.T) {
	for _, b := range benchmarks.All() {
		in, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if in.NumQubits > 16 {
			// The 19-20 qubit entries are covered by the opt-bench CI job;
			// dense verification at 2^20 is too slow for the unit suite.
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			out, st := Saturate(in, Options{})
			if err := out.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			if st.GatesOut > st.GatesIn {
				t.Fatalf("counts increased: %+v", st)
			}
			if wi, wo := loweredTwoQubitWeight(in), loweredTwoQubitWeight(out); wo > wi {
				t.Fatalf("lowered two-qubit weight increased: %d -> %d", wi, wo)
			}
			ok, err := sim.Equivalent(in, out, 2, 7)
			if err != nil {
				t.Fatalf("equivalence: %v", err)
			}
			if !ok {
				t.Fatal("saturated benchmark diverged from input")
			}
		})
	}
}

func TestStatsCountRules(t *testing.T) {
	c := circuit.New(1)
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	c.Append(circuit.NewGate(circuit.H, []int{0}))
	_, st := Saturate(c, Options{})
	if st.Applied["cancel-inverse"] != 1 || st.Rewrites != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.GatesIn != 2 || st.GatesOut != 0 {
		t.Fatalf("stats counts: %+v", st)
	}
}

// TestReplacePanicsOffItsQubits: a replacement must be on a subset of its
// node's qubits, so its links fit the node's slot; one on another qubit,
// or on more qubits, is a bug in a rule and panics.
func TestReplacePanicsOffItsQubits(t *testing.T) {
	for _, g := range []circuit.Gate{
		circuit.NewGate(circuit.X, []int{2}),
		circuit.NewGate(circuit.CX, []int{0, 2}),
		circuit.NewGate(circuit.CCX, []int{0, 1, 2}),
	} {
		c := circuit.New(3)
		c.CX(0, 1).H(2)
		e := new(engine)
		e.load(c, Options{})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("replacing cx q[0], q[1] with %v did not panic", g)
				}
			}()
			e.replace(0, g)
		}()
	}
}

// TestMergedRotationsStayFiniteAndEquivalent runs every merge rule on two
// angle pairs a plain float sum gets wrong: 1e308 + 1e308 overflows, and
// 1e17 + 0.1 drops the 0.1, where reducing by the float 2π is also off by
// radians. Each merged parameter must be finite, the emitted QASM must
// parse again, and the result must be equivalent to the input. A third
// pair, 6e5 + 6e5, has operands below bigAngle and a sum above it: its
// merged angle must stay the float sum wrapped by the float 2π, bit for
// bit, as optimize-on output was computed before large angles were
// reduced exactly.
func TestMergedRotationsStayFiniteAndEquivalent(t *testing.T) {
	for _, pair := range [][2]float64{{1e308, 1e308}, {1e17, 0.1}, {6e5, 6e5}} {
		for _, name := range []circuit.Name{circuit.RZ, circuit.U1, circuit.RX, circuit.RY, circuit.CP} {
			qs := []int{0}
			if name == circuit.CP {
				qs = []int{0, 1}
			}
			c := circuit.New(2)
			c.Append(circuit.NewGate(name, qs, pair[0]))
			c.Append(circuit.NewGate(name, qs, pair[1]))
			out, st := Saturate(c, Options{})
			if st.Rewrites == 0 {
				t.Fatalf("%v(%g)·%v(%g): no rule fired", name, pair[0], name, pair[1])
			}
			for _, g := range out.Gates {
				for _, p := range g.Params {
					if math.IsNaN(p) || math.IsInf(p, 0) {
						t.Fatalf("%v(%g)·%v(%g) merged to %v", name, pair[0], name, pair[1], gatesOf(out))
					}
				}
			}
			src, err := qasm.Emit(out)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := qasm.Parse(src); err != nil {
				t.Fatalf("%v(%g)·%v(%g): emitted QASM does not parse: %v\n%s", name, pair[0], name, pair[1], err, src)
			}
			mustEquivalent(t, c, out, 7)
			if math.Abs(pair[0]) < bigAngle && math.Abs(pair[1]) < bigAngle {
				want := math.Remainder(pair[0]+pair[1], 2*math.Pi)
				if len(out.Gates) != 1 || len(out.Gates[0].Params) != 1 || math.Float64bits(out.Gates[0].Params[0]) != math.Float64bits(want) {
					t.Fatalf("%v(%g)·%v(%g) merged to %v, want one %v(%v)", name, pair[0], name, pair[1], gatesOf(out), name, want)
				}
			}
		}
	}
}
