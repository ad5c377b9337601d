package route

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

func TestStochasticAdjacentNoSwaps(t *testing.T) {
	g := topo.Line(4)
	c := circuit.New(2)
	c.CX(0, 1)
	res, err := (&Stochastic{Seed: 1}).Route(c, g, layout.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapsAdded != 0 {
		t.Errorf("swaps = %d, want 0", res.SwapsAdded)
	}
	checkRouted(t, c, g, layout.Identity(4), res)
}

func TestStochasticEquivalenceSmallDevices(t *testing.T) {
	graphs := []*topo.Graph{topo.Line(6), topo.Ring(6), topo.Grid(2, 3)}
	rng := rand.New(rand.NewSource(55))
	for _, g := range graphs {
		for trial := 0; trial < 4; trial++ {
			c := random2QCircuit(rng, g.NumQubits(), 15)
			init := layout.Random(g.NumQubits(), rng)
			res, err := (&Stochastic{Seed: int64(trial)}).Route(c, g, init)
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			checkRouted(t, c, g, init, res)
		}
	}
}

func TestStochasticTrioAware(t *testing.T) {
	g := topo.Grid(2, 3)
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 4; trial++ {
		c := randomTrioCircuit(rng, 6, 12)
		init := layout.Random(6, rng)
		res, err := (&Stochastic{Seed: int64(trial), TrioAware: true}).Route(c, g, init)
		if err != nil {
			t.Fatal(err)
		}
		checkRouted(t, c, g, init, res)
	}
}

func TestStochasticRejectsCCXWithoutTrioAware(t *testing.T) {
	g := topo.Line(4)
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	if _, err := (&Stochastic{Seed: 1}).Route(c, g, layout.Identity(4)); err == nil {
		t.Error("expected error for ccx without TrioAware")
	}
}

func TestStochasticDeterministicPerSeed(t *testing.T) {
	g := topo.Johannesburg()
	c := circuit.New(20)
	rng := rand.New(rand.NewSource(57))
	for i := 0; i < 10; i++ {
		a, b := rng.Intn(20), rng.Intn(19)
		if b >= a {
			b++
		}
		c.CX(a, b)
	}
	r1, err := (&Stochastic{Seed: 7}).Route(c, g, layout.Identity(20))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := (&Stochastic{Seed: 7}).Route(c, g, layout.Identity(20))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Circuit.Equal(r2.Circuit) {
		t.Error("same seed produced different routes")
	}
}

func TestStochasticWeakerThanDirect(t *testing.T) {
	// The stochastic router models the era-appropriate baseline: across many
	// distant CNOTs it should insert at least as many SWAPs as the direct
	// shortest-path router (usually more).
	g := topo.Johannesburg()
	c := circuit.New(20)
	rng := rand.New(rand.NewSource(58))
	for i := 0; i < 25; i++ {
		a, b := rng.Intn(20), rng.Intn(19)
		if b >= a {
			b++
		}
		c.CX(a, b)
	}
	direct, err := (&Baseline{Seed: 3}).Route(c, g, layout.Identity(20))
	if err != nil {
		t.Fatal(err)
	}
	stoch, err := (&Stochastic{Seed: 3}).Route(c, g, layout.Identity(20))
	if err != nil {
		t.Fatal(err)
	}
	if stoch.SwapsAdded < direct.SwapsAdded {
		t.Errorf("stochastic added %d swaps, direct %d: expected stochastic >= direct",
			stoch.SwapsAdded, direct.SwapsAdded)
	}
}

// TestStochasticLargestDevice routes random CNOTs on a 255-qubit line, the
// largest device a graph models, through the byte-packed scoring tables.
func TestStochasticLargestDevice(t *testing.T) {
	g := topo.Line(255)
	rng := rand.New(rand.NewSource(59))
	c := circuit.New(255)
	for i := 0; i < 200; i++ {
		p := rng.Perm(255)
		c.CX(p[0], p[1])
	}
	init := layout.Identity(255)
	res, err := (&Stochastic{Seed: 1}).Route(c, g, init)
	if err != nil {
		t.Fatal(err)
	}
	checkRouted(t, c, g, init, res)
	replaySwaps(t, res.Circuit, init, res.Final)
}
