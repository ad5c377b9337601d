package compiler

import (
	"testing"

	"trios/internal/circuit"
	"trios/internal/device"
	"trios/internal/noise"
	"trios/internal/sched"
	"trios/internal/topo"
)

// edgeCal builds a calibration of g carrying em's per-coupling CNOT errors,
// so a Noise cost model over it routes by the same -log(1-e) edge weights
// as em.RouteWeight.
func edgeCal(t *testing.T, g *topo.Graph, em *noise.EdgeMap) *device.Calibration {
	t.Helper()
	cal := device.Flat("edges", g, 70, 70, 0.0004, 0, 0.03, sched.JohannesburgTimes())
	for _, e := range g.Edges() {
		errRate, err := em.Error(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		cal.SetEdgeError(e[0], e[1], errRate)
	}
	return cal
}

// TestNoiseAwareRoutingAvoidsHotEdges exercises the paper's §4 noise-aware
// extension end to end: with one very bad coupling on the only short path,
// weighting routing edges by -log CNOT success must steer SWAPs around it
// and yield a higher per-edge success estimate than noise-blind routing.
func TestNoiseAwareRoutingAvoidsHotEdges(t *testing.T) {
	// Ring of 7: the unique shortest path 0-1-2-3 crosses a hot coupling;
	// the one-hop-longer way around (0-6-5-4-3) is clean. Noise-blind
	// routing must take the short hot path; noise-aware must detour.
	g := topo.Ring(7)
	em := noise.UniformEdgeMap(g, 0.005)
	em.SetError(1, 2, 0.35)

	src := circuit.New(2)
	src.CX(0, 1)
	init := []int{0, 3}

	blind, err := Compile(src, g, Options{Pipeline: Conventional, InitialLayout: init, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Compile(src, g, Options{
		Pipeline: Conventional, InitialLayout: init, Seed: 2,
		CostModel: device.NewNoise(edgeCal(t, g, em)),
	})
	if err != nil {
		t.Fatal(err)
	}

	model := noise.Johannesburg0819()
	model.ReadoutError = 0
	pBlind, err := noise.SuccessProbabilityEdges(blind.Physical, model, em)
	if err != nil {
		t.Fatal(err)
	}
	pAware, err := noise.SuccessProbabilityEdges(aware.Physical, model, em)
	if err != nil {
		t.Fatal(err)
	}
	// The noise-aware route detours around qubit 4's hot couplings.
	for _, gate := range aware.Physical.Gates {
		if gate.Name == circuit.CX {
			e, err := em.Error(gate.Qubits[0], gate.Qubits[1])
			if err != nil {
				t.Fatal(err)
			}
			if e > 0.3 {
				t.Errorf("noise-aware routing used hot edge (%d,%d)", gate.Qubits[0], gate.Qubits[1])
			}
		}
	}
	if pAware <= pBlind {
		t.Errorf("noise-aware success %v <= blind %v", pAware, pBlind)
	}
}

// TestNoiseAwareTrioRouting checks the Trios pipeline accepts edge weights
// and produces legal, verified circuits under them.
func TestNoiseAwareTrioRouting(t *testing.T) {
	g := topo.Grid(3, 3)
	em := noise.SyntheticCalibration(g, 0.01, 0.6, 2, 9)
	src := circuit.New(3)
	src.CCX(0, 1, 2)
	res, err := Compile(src, g, Options{
		Pipeline:      TriosPipeline,
		InitialLayout: []int{0, 8, 6},
		CostModel:     device.NewNoise(edgeCal(t, g, em)),
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyCompiled(t, res)
}

// TestNoiseAwareTrioAvoidsHotCoupler reproduces the examples/noiseaware
// scenario: a Toffoli straddling degraded couplers must form its trio on
// clean edges when routing is noise-aware, even at the cost of extra SWAPs.
func TestNoiseAwareTrioAvoidsHotCoupler(t *testing.T) {
	g := topo.Johannesburg()
	hot := [][2]int{{7, 12}, {5, 10}, {6, 7}}
	em := noise.UniformEdgeMap(g, 0.005)
	for _, e := range hot {
		em.SetError(e[0], e[1], 0.35)
	}
	src := circuit.New(3)
	src.CCX(0, 1, 2)
	aware, err := Compile(src, g, Options{
		Pipeline:      TriosPipeline,
		InitialLayout: []int{2, 11, 15},
		CostModel:     device.NewNoise(edgeCal(t, g, em)),
		Seed:          8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := aware.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, gate := range aware.Physical.Gates {
		if gate.Name != circuit.CX {
			continue
		}
		e, err := em.Error(gate.Qubits[0], gate.Qubits[1])
		if err != nil {
			t.Fatal(err)
		}
		if e > 0.3 {
			t.Errorf("noise-aware trio used hot coupler (%d,%d)", gate.Qubits[0], gate.Qubits[1])
		}
	}
	// And it must beat the blind compilation under the per-edge model.
	blind, err := Compile(src, g, Options{
		Pipeline:      TriosPipeline,
		InitialLayout: []int{2, 11, 15},
		Seed:          8,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := noise.Johannesburg0819()
	model.ReadoutError = 0
	pAware, err := noise.SuccessProbabilityEdges(aware.Physical, model, em)
	if err != nil {
		t.Fatal(err)
	}
	pBlind, err := noise.SuccessProbabilityEdges(blind.Physical, model, em)
	if err != nil {
		t.Fatal(err)
	}
	if pAware <= pBlind {
		t.Errorf("noise-aware %v <= blind %v", pAware, pBlind)
	}
}

// TestStochasticAndLookaheadAcceptNoiseWeights: every router scores against
// a noise cost model's weighted-path tables — the stochastic and lookahead
// strategies included. The compiled circuits must stay legal and verified
// under weights.
func TestStochasticAndLookaheadAcceptNoiseWeights(t *testing.T) {
	g := topo.Grid(3, 3)
	em := noise.SyntheticCalibration(g, 0.01, 0.6, 2, 9)
	src := circuit.New(4)
	src.CX(0, 3).CCX(0, 1, 2).CX(2, 3).CX(0, 2)
	for _, router := range []RouterKind{RouteStochastic, RouteLookahead} {
		res, err := Compile(src, g, Options{
			Pipeline:  TriosPipeline,
			Router:    router,
			Placement: PlaceGreedy,
			CostModel: device.NewNoise(edgeCal(t, g, em)),
			Seed:      3,
		})
		if err != nil {
			t.Fatalf("%v: %v", router, err)
		}
		verifyCompiled(t, res)
	}
}

// TestLookaheadNoiseAwareAvoidsHotEdge: the lookahead swap scoring must
// steer a blocked pair around a degraded coupler when the weighted tables
// say the detour is cheaper.
func TestLookaheadNoiseAwareAvoidsHotEdge(t *testing.T) {
	// Ring of 7 as in the direct-router test: the short way from 0 to 3
	// crosses the hot (1,2) coupling, the long way is clean.
	g := topo.Ring(7)
	em := noise.UniformEdgeMap(g, 0.005)
	em.SetError(1, 2, 0.35)
	src := circuit.New(2)
	src.CX(0, 1)
	init := []int{0, 3}
	aware, err := Compile(src, g, Options{
		Pipeline: Conventional, Router: RouteLookahead,
		InitialLayout: init, Seed: 2,
		CostModel: device.NewNoise(edgeCal(t, g, em)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, gate := range aware.Physical.Gates {
		if gate.Name != circuit.CX {
			continue
		}
		e, err := em.Error(gate.Qubits[0], gate.Qubits[1])
		if err != nil {
			t.Fatal(err)
		}
		if e > 0.3 {
			t.Errorf("noise-aware lookahead used hot edge (%d,%d)", gate.Qubits[0], gate.Qubits[1])
		}
	}
}

// TestStochasticNoiseAwareImprovesSuccess: across seeds, weighted delta
// scoring should on average compile to no worse per-edge success than the
// noise-blind stochastic walk on a landscape with one very hot coupler.
func TestStochasticNoiseAwareImprovesSuccess(t *testing.T) {
	g := topo.Ring(7)
	em := noise.UniformEdgeMap(g, 0.005)
	em.SetError(1, 2, 0.35)
	src := circuit.New(2)
	src.CX(0, 1)
	init := []int{0, 3}
	model := noise.Johannesburg0819()
	model.ReadoutError = 0
	sumBlind, sumAware := 0.0, 0.0
	for seed := int64(0); seed < 8; seed++ {
		blind, err := Compile(src, g, Options{
			Pipeline: Conventional, Router: RouteStochastic,
			InitialLayout: init, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		aware, err := Compile(src, g, Options{
			Pipeline: Conventional, Router: RouteStochastic,
			InitialLayout: init, Seed: seed,
			CostModel: device.NewNoise(edgeCal(t, g, em)),
		})
		if err != nil {
			t.Fatal(err)
		}
		pb, err := noise.SuccessProbabilityEdges(blind.Physical, model, em)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := noise.SuccessProbabilityEdges(aware.Physical, model, em)
		if err != nil {
			t.Fatal(err)
		}
		sumBlind += pb
		sumAware += pa
	}
	if sumAware < sumBlind {
		t.Errorf("noise-aware stochastic mean success %v < blind %v", sumAware/8, sumBlind/8)
	}
}
