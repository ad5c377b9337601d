package device

import (
	"math"
	"sync"
	"testing"

	"trios/internal/topo"
)

func TestUniformContract(t *testing.T) {
	var u Uniform
	if u.Weight() != nil {
		t.Error("Uniform.Weight must be nil (hop-count contract)")
	}
	if u.Oracle(topo.Line(4)) != nil {
		t.Error("Uniform.Oracle must be nil")
	}
	if key := u.CacheKey(); key != "uniform" {
		t.Errorf("CacheKey = %q", key)
	}
}

func TestNoiseOracleMemoized(t *testing.T) {
	cal, err := ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	m := NewNoise(cal)
	g := topo.Johannesburg()
	var wg sync.WaitGroup
	oracles := make([]*topo.WeightedOracle, 8)
	for i := range oracles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oracles[i] = m.Oracle(g)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(oracles); i++ {
		if oracles[i] != oracles[0] {
			t.Fatal("Oracle not memoized per (graph, calibration)")
		}
	}
	// A different graph gets its own oracle.
	g2 := topo.Grid5x4()
	if m.Oracle(g2) == oracles[0] {
		t.Fatal("distinct graphs share an oracle")
	}
}

func TestNoiseOracleMatchesWeights(t *testing.T) {
	cal, err := ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	m := NewNoise(cal)
	g := topo.Johannesburg()
	o := m.Oracle(g)
	w := m.Weight()
	// Oracle distance between coupled qubits never exceeds the direct edge.
	for _, e := range g.EdgeList() {
		d := o.Dist(e[0], e[1])
		if d > w(e[0], e[1])+1e-12 {
			t.Errorf("oracle dist %v > edge weight %v for (%d,%d)", d, w(e[0], e[1]), e[0], e[1])
		}
	}
	// Path weights reproduce the paper's -log success semantics: a clean
	// detour beats a single hot edge.
	c := cal.Clone()
	c.SetEdgeError(0, 1, 0.49)
	hot := NewNoise(c)
	ho := hot.Oracle(g)
	if ho.Dist(0, 1) >= -math.Log(1-0.49) {
		t.Error("hot edge should be bypassed by a cheaper multi-hop path or equal it")
	}
}

func TestNoiseCacheKeyTracksContent(t *testing.T) {
	a := JohannesburgFlat()
	ka := NewNoise(a).CacheKey()
	kb := NewNoise(a.Clone()).CacheKey()
	if ka != kb {
		t.Error("equal calibrations must share a cache key")
	}
	c := a.Clone()
	c.SetEdgeError(5, 6, 0.2)
	kc := NewNoise(c).CacheKey()
	if kc == ka {
		t.Error("different calibrations must not share a cache key")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		g, err := topo.ByName(c.Device)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.CheckGraph(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Shared singleton: the daemon's per-calibration memoization relies
		// on pointer identity.
		again, _ := ByName(name)
		if again != c {
			t.Errorf("%s: ByName returns distinct pointers", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	c, err := ForDevice("johannesburg")
	if err != nil || c.Name != "johannesburg-0819" {
		t.Errorf("ForDevice(johannesburg) = %v, %v", c, err)
	}
	if _, err := ForDevice("full"); err == nil {
		t.Error("ForDevice(full) should have no calibration")
	}
}

// TestSyntheticDeterministic pins that synthetic calibrations are pure in
// their seed: the registry digest must never drift between processes, or
// cached service responses would alias across builds.
func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic("x", topo.Grid5x4(), 0.5, 2, 7)
	b := Synthetic("x", topo.Grid5x4(), 0.5, 2, 7)
	if a.Digest() != b.Digest() {
		t.Fatal("synthetic calibration not deterministic in seed")
	}
	c := Synthetic("x", topo.Grid5x4(), 0.5, 2, 8)
	if c.Digest() == a.Digest() {
		t.Fatal("seed ignored")
	}
}
