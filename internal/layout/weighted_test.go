package layout

import (
	"math"
	"testing"

	"trios/internal/circuit"
	"trios/internal/topo"
)

// legacyDistanceMatrix preserves the private all-pairs machinery
// GreedyWeighted used before the cost-layer refactor (hop counts, or a
// linear-scan Dijkstra per source). It is the golden reference pinning that
// routing placement through the shared topo.WeightedOracle changed nothing.
func legacyDistanceMatrix(g *topo.Graph, edgeWeight func(a, b int) float64) [][]float64 {
	n := g.NumQubits()
	dist := make([][]float64, n)
	if edgeWeight == nil {
		hops := g.DistTable()
		for i := range dist {
			dist[i] = make([]float64, n)
			for j, d := range hops.Row(i) {
				if d < 0 {
					dist[i][j] = math.Inf(1)
				} else {
					dist[i][j] = float64(d)
				}
			}
		}
		return dist
	}
	for src := 0; src < n; src++ {
		row := make([]float64, n)
		done := make([]bool, n)
		for i := range row {
			row[i] = math.Inf(1)
		}
		row[src] = 0
		for {
			u, best := -1, math.Inf(1)
			for q := 0; q < n; q++ {
				if !done[q] && row[q] < best {
					u, best = q, row[q]
				}
			}
			if u == -1 {
				break
			}
			done[u] = true
			for _, nb := range g.Neighbors(u) {
				w := edgeWeight(u, nb)
				if w < 0 {
					w = 0
				}
				if nd := row[u] + w; nd < row[nb] {
					row[nb] = nd
				}
			}
		}
		dist[src] = row
	}
	return dist
}

// legacyGreedyWeighted re-implements the pre-refactor placement loop on top
// of legacyDistanceMatrix, verbatim in its selection and tie-break order.
func legacyGreedyWeighted(c *circuit.Circuit, g *topo.Graph, edgeWeight func(a, b int) float64) []int {
	n := g.NumQubits()
	weights := InteractionWeights(c)
	dist := legacyDistanceMatrix(g, edgeWeight)
	total := make([]int, c.NumQubits)
	for pair, w := range weights {
		total[pair[0]] += w
		total[pair[1]] += w
	}
	v2p := make([]int, n)
	for i := range v2p {
		v2p[i] = -1
	}
	usedPhys := make([]bool, n)
	seedV := 0
	for v := 1; v < c.NumQubits; v++ {
		if total[v] > total[seedV] {
			seedV = v
		}
	}
	seedP := 0
	if edgeWeight == nil {
		for p := 1; p < n; p++ {
			if g.Degree(p) > g.Degree(seedP) {
				seedP = p
			}
		}
	} else {
		bestSum := math.Inf(1)
		for p := 0; p < n; p++ {
			sum := 0.0
			for q := 0; q < n; q++ {
				sum += dist[p][q]
			}
			if sum < bestSum {
				seedP, bestSum = p, sum
			}
		}
	}
	v2p[seedV] = seedP
	usedPhys[seedP] = true
	pairWeight := func(a, b int) int {
		if a > b {
			a, b = b, a
		}
		return weights[[2]int{a, b}]
	}
	for placed := 1; placed < c.NumQubits; placed++ {
		bestV, bestTie := -1, -1
		for v := 0; v < c.NumQubits; v++ {
			if v2p[v] != -1 {
				continue
			}
			tie := 0
			for u := 0; u < c.NumQubits; u++ {
				if v2p[u] != -1 {
					tie += pairWeight(v, u)
				}
			}
			if tie > bestTie || (tie == bestTie && bestV >= 0 && total[v] > total[bestV]) {
				bestV, bestTie = v, tie
			}
		}
		bestP := -1
		bestCost := math.Inf(1)
		for p := 0; p < n; p++ {
			if usedPhys[p] {
				continue
			}
			cost := 0.0
			anyPartner := false
			for u := 0; u < c.NumQubits; u++ {
				if v2p[u] == -1 {
					continue
				}
				if w := pairWeight(bestV, u); w > 0 {
					cost += float64(w) * dist[p][v2p[u]]
					anyPartner = true
				}
			}
			if !anyPartner {
				for u := 0; u < c.NumQubits; u++ {
					if v2p[u] != -1 {
						cost += dist[p][v2p[u]]
					}
				}
			}
			if cost < bestCost {
				bestP, bestCost = p, cost
			}
		}
		v2p[bestV] = bestP
		usedPhys[bestP] = true
	}
	return v2p[:c.NumQubits]
}

// testWeights is a set of edge-weight shapes exercising clean, skewed, and
// hot-edge calibration landscapes.
func testWeights() map[string]func(a, b int) float64 {
	return map[string]func(a, b int) float64{
		"flat": func(a, b int) float64 { return 0.015 },
		"split": func(a, b int) float64 {
			if a < 10 && b < 10 {
				return 1.5
			}
			return 0.01
		},
		"skewed": func(a, b int) float64 {
			return 0.005 + 0.013*float64((a*7+b*13)%11)
		},
	}
}

// testCircuits returns interaction structures of increasing richness.
func testCircuits() map[string]*circuit.Circuit {
	c1 := circuit.New(2)
	for i := 0; i < 5; i++ {
		c1.CX(0, 1)
	}
	c2 := circuit.New(6)
	c2.CCX(0, 1, 2).CX(2, 3).CCX(3, 4, 5).CX(0, 5)
	c3 := circuit.New(9)
	for i := 0; i < 8; i++ {
		c3.CX(i, i+1)
	}
	c3.CCX(0, 4, 8)
	return map[string]*circuit.Circuit{"pair": c1, "toffolis": c2, "chain": c3}
}

// TestGreedyWeightedPinnedToLegacy is the satellite pin: GreedyWeighted over
// the shared topo.WeightedOracle must reproduce the deleted private
// distance-matrix implementation placement for placement, across devices,
// circuits, and weight landscapes.
func TestGreedyWeightedPinnedToLegacy(t *testing.T) {
	for _, g := range []*topo.Graph{topo.Johannesburg(), topo.Grid5x4(), topo.Line20(), topo.Clusters5x4()} {
		for wn, w := range testWeights() {
			orc := topo.NewWeightedOracle(g, w)
			for cn, c := range testCircuits() {
				want := legacyGreedyWeighted(c, g, w)
				got, err := GreedyWeighted(c, g, orc)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", g.Name(), wn, cn, err)
				}
				for v, p := range want {
					if got.Phys(v) != p {
						t.Fatalf("%s/%s/%s: qubit %d placed at %d, legacy %d",
							g.Name(), wn, cn, v, got.Phys(v), p)
					}
				}
			}
		}
		// And the unweighted path against the legacy hop-matrix variant.
		for cn, c := range testCircuits() {
			want := legacyGreedyWeighted(c, g, nil)
			got, err := Greedy(c, g)
			if err != nil {
				t.Fatalf("%s/unweighted/%s: %v", g.Name(), cn, err)
			}
			for v, p := range want {
				if got.Phys(v) != p {
					t.Fatalf("%s/unweighted/%s: qubit %d placed at %d, legacy %d",
						g.Name(), cn, v, got.Phys(v), p)
				}
			}
		}
	}
}

// TestGreedyWeightedAvoidsBadRegion places a heavily-interacting pair on a
// line whose left half has terrible couplers; the noise-aware mapper must
// put the pair on the clean right half.
func TestGreedyWeightedAvoidsBadRegion(t *testing.T) {
	g := topo.Line(8)
	weight := func(a, b int) float64 {
		if a < 4 && b < 4 {
			return 10 // noisy left half
		}
		return 0.1
	}
	c := circuit.New(2)
	for i := 0; i < 5; i++ {
		c.CX(0, 1)
	}
	l, err := GreedyWeighted(c, g, topo.NewWeightedOracle(g, weight))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	p0, p1 := l.Phys(0), l.Phys(1)
	if !g.Connected(p0, p1) {
		t.Fatalf("pair should still be adjacent: (%d,%d)", p0, p1)
	}
	if weight(p0, p1) > 1 {
		t.Errorf("pair placed on a noisy coupler (%d,%d)", p0, p1)
	}
}

// TestGreedyWeightedNilMatchesGreedy ensures the weighted path with a nil
// oracle is exactly the unweighted mapper.
func TestGreedyWeightedNilMatchesGreedy(t *testing.T) {
	g := topo.Johannesburg()
	c := circuit.New(6)
	c.CCX(0, 1, 2).CX(2, 3).CCX(3, 4, 5)
	a, err := Greedy(c, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyWeighted(c, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		if a.Phys(v) != b.Phys(v) {
			t.Fatal("nil-weight GreedyWeighted differs from Greedy")
		}
	}
}
