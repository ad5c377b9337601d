package compiler

import (
	"math"
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/decompose"
	"trios/internal/device"
	"trios/internal/sched"
	"trios/internal/sim"
	"trios/internal/topo"
)

// verifyCompiled checks hardware legality and semantic equivalence (on
// small devices) of a compile result.
func verifyCompiled(t *testing.T, res *Result) {
	t.Helper()
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumQubits() > 12 {
		return
	}
	n := res.Input.NumQubits
	ok, err := sim.CompiledEquivalent(res.Input, res.Physical, res.Graph.NumQubits(),
		res.Initial[:n], res.Final[:n], 3, 999)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("compiled circuit not equivalent to input")
	}
}

func TestConventionalSingleToffoli(t *testing.T) {
	g := topo.Line(8)
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	res, err := Compile(c, g, Options{Pipeline: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	verifyCompiled(t, res)
}

func TestTriosSingleToffoli(t *testing.T) {
	g := topo.Line(8)
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	res, err := Compile(c, g, Options{Pipeline: TriosPipeline})
	if err != nil {
		t.Fatal(err)
	}
	verifyCompiled(t, res)
	// On a line with the trio already adjacent, trios+8-CNOT should need
	// exactly 8 CNOTs and no SWAPs.
	if res.SwapsAdded != 0 {
		t.Errorf("swaps = %d, want 0", res.SwapsAdded)
	}
	if got := res.TwoQubitGates(); got != 8 {
		t.Errorf("two-qubit gates = %d, want 8", got)
	}
}

func TestTriosBeatsBaselineOnDistantToffoli(t *testing.T) {
	// The core claim (Figs. 1, 7): on a distant trio the Trios pipeline
	// produces fewer two-qubit gates than the conventional one.
	g := topo.Johannesburg()
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	init := []int{6, 17, 3} // paper's worst-case triple, distance 10

	base, err := Compile(c, g, Options{Pipeline: Conventional, InitialLayout: init, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	trios, err := Compile(c, g, Options{Pipeline: TriosPipeline, InitialLayout: init, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := trios.Verify(); err != nil {
		t.Fatal(err)
	}
	if trios.TwoQubitGates() >= base.TwoQubitGates() {
		t.Errorf("trios %d two-qubit gates, baseline %d: trios should win",
			trios.TwoQubitGates(), base.TwoQubitGates())
	}
	if trios.SwapsAdded >= base.SwapsAdded {
		t.Errorf("trios %d swaps, baseline %d: trios should add fewer",
			trios.SwapsAdded, base.SwapsAdded)
	}
}

func TestAllFourPaperConfigurations(t *testing.T) {
	// Fig. 6/7 compare: Qiskit(6), Qiskit(8), Trios(6), Trios(8).
	g := topo.Line(10)
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	init := []int{0, 4, 9}
	configs := []Options{
		{Pipeline: Conventional, Mode: decompose.Six, InitialLayout: init},
		{Pipeline: Conventional, Mode: decompose.Eight, InitialLayout: init},
		{Pipeline: TriosPipeline, Mode: decompose.Six, InitialLayout: init},
		{Pipeline: TriosPipeline, Mode: decompose.Eight, InitialLayout: init},
	}
	for i, opt := range configs {
		res, err := Compile(c, g, opt)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		verifyCompiled(t, res)
	}
}

func TestTriosSixFixupRouting(t *testing.T) {
	// Forcing the 6-CNOT decomposition on a line leaves one non-adjacent
	// CNOT pair, which the fixup pass must route; result stays correct.
	g := topo.Line(6)
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	res, err := Compile(c, g, Options{Pipeline: TriosPipeline, Mode: decompose.Six})
	if err != nil {
		t.Fatal(err)
	}
	verifyCompiled(t, res)
	if res.SwapsAdded == 0 {
		t.Error("6-CNOT on a line should have needed fixup swaps")
	}
}

func TestRandomCircuitsBothPipelines(t *testing.T) {
	graphs := []*topo.Graph{topo.Line(6), topo.Grid(2, 3), topo.Ring(6), topo.Clusters(2, 3)}
	rng := rand.New(rand.NewSource(17))
	for _, g := range graphs {
		for trial := 0; trial < 3; trial++ {
			c := randomCircuit(rng, g.NumQubits(), 15)
			for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
				res, err := Compile(c, g, Options{Pipeline: pipe, Seed: int64(trial), Placement: PlaceGreedy})
				if err != nil {
					t.Fatalf("%s/%v: %v", g.Name(), pipe, err)
				}
				verifyCompiled(t, res)
			}
		}
	}
}

func TestCompileRejectsOversizedCircuit(t *testing.T) {
	g := topo.Line(3)
	c := circuit.New(5)
	if _, err := Compile(c, g, Options{}); err == nil {
		t.Error("expected size error")
	}
}

func TestInitialLayoutValidation(t *testing.T) {
	g := topo.Line(4)
	c := circuit.New(2)
	c.CX(0, 1)
	if _, err := Compile(c, g, Options{InitialLayout: []int{0, 0}}); err == nil {
		t.Error("expected duplicate placement error")
	}
	if _, err := Compile(c, g, Options{InitialLayout: []int{0, 9}}); err == nil {
		t.Error("expected out-of-range placement error")
	}
}

func TestPlacementStrategies(t *testing.T) {
	g := topo.Grid(2, 3)
	c := circuit.New(4)
	c.CCX(0, 1, 2).CX(2, 3)
	for _, p := range []Placement{PlaceIdentity, PlaceGreedy, PlaceRandom} {
		res, err := Compile(c, g, Options{Pipeline: TriosPipeline, Placement: p, Seed: 3})
		if err != nil {
			t.Fatalf("placement %d: %v", int(p), err)
		}
		verifyCompiled(t, res)
	}
}

func TestNoToffoliCircuitSameForBothPipelines(t *testing.T) {
	// §4: on Toffoli-free programs Trios has no effect. With the same seed
	// and placement the two pipelines route identically.
	g := topo.Johannesburg()
	c := circuit.New(20)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 15; i++ {
		a, b := rng.Intn(20), rng.Intn(19)
		if b >= a {
			b++
		}
		c.CX(a, b)
	}
	base, err := Compile(c, g, Options{Pipeline: Conventional, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	trios, err := Compile(c, g, Options{Pipeline: TriosPipeline, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.TwoQubitGates() != trios.TwoQubitGates() {
		t.Errorf("toffoli-free circuit: baseline %d vs trios %d two-qubit gates",
			base.TwoQubitGates(), trios.TwoQubitGates())
	}
}

func TestMeasuresSurviveCompilation(t *testing.T) {
	g := topo.Line(5)
	c := circuit.New(3)
	c.CCX(0, 1, 2).Measure(0).Measure(1).Measure(2)
	res, err := Compile(c, g, Options{Pipeline: TriosPipeline})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Physical.CountName(circuit.Measure); got != 3 {
		t.Errorf("measures = %d, want 3", got)
	}
}

func TestNoiseAwareCompilation(t *testing.T) {
	g := topo.Grid(2, 3)
	// Every coupling weighs -log(1-e) = 1.
	cal := device.Flat("unit-weight", g, 70, 70, 0.0004, 1-math.Exp(-1), 0.03, sched.JohannesburgTimes())
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	res, err := Compile(c, g, Options{Pipeline: TriosPipeline, CostModel: device.NewNoise(cal)})
	if err != nil {
		t.Fatal(err)
	}
	verifyCompiled(t, res)
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(5) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.RZ(rng.Float64()*6, rng.Intn(n))
		case 3:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		default:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		}
	}
	return c
}
