// Package layout maps logical (program) qubits onto physical device qubits
// and provides the initial-placement strategies used before routing:
// identity, seeded random, and a greedy interaction-aware placer that treats
// an intact Toffoli as its three qubit pairs (§4: "the mapper can simply
// treat the non-decomposed Toffoli as it would the equivalent 6 CNOTs").
package layout

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"trios/internal/circuit"
	"trios/internal/topo"
)

// Layout is a bijection between virtual qubits and physical qubits of an
// n-qubit device. Virtual qubits 0..L-1 carry the program's logical qubits;
// virtual qubits L..n-1 are padding that lets routing SWAPs move data
// through unoccupied positions.
type Layout struct {
	v2p []int // virtual -> physical
	p2v []int // physical -> virtual
}

// Identity returns the layout placing virtual qubit i on physical qubit i.
func Identity(n int) *Layout {
	l := &Layout{v2p: make([]int, n), p2v: make([]int, n)}
	for i := 0; i < n; i++ {
		l.v2p[i] = i
		l.p2v[i] = i
	}
	return l
}

// FromVirtualToPhys builds a layout from an explicit virtual->physical
// assignment, which must be a permutation of 0..n-1.
func FromVirtualToPhys(v2p []int) (*Layout, error) {
	n := len(v2p)
	l := &Layout{v2p: make([]int, n), p2v: make([]int, n)}
	for i := range l.p2v {
		l.p2v[i] = -1
	}
	for v, p := range v2p {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("layout: physical qubit %d outside [0,%d)", p, n)
		}
		if l.p2v[p] != -1 {
			return nil, fmt.Errorf("layout: physical qubit %d assigned twice", p)
		}
		l.v2p[v] = p
		l.p2v[p] = v
	}
	return l, nil
}

// Random returns a uniformly random placement from the given RNG.
func Random(n int, rng *rand.Rand) *Layout {
	perm := rng.Perm(n)
	l, _ := FromVirtualToPhys(perm)
	return l
}

// Size returns the number of device qubits the layout covers.
func (l *Layout) Size() int { return len(l.v2p) }

// Phys returns the physical qubit currently holding virtual qubit v.
func (l *Layout) Phys(v int) int { return l.v2p[v] }

// SwapPhys exchanges the virtual qubits held at two physical positions,
// mirroring the effect of a SWAP gate on (p1, p2).
func (l *Layout) SwapPhys(p1, p2 int) {
	v1, v2 := l.p2v[p1], l.p2v[p2]
	l.p2v[p1], l.p2v[p2] = v2, v1
	l.v2p[v1], l.v2p[v2] = p2, p1
}

// Copy returns an independent copy of the layout.
func (l *Layout) Copy() *Layout {
	c := &Layout{v2p: make([]int, len(l.v2p)), p2v: make([]int, len(l.p2v))}
	copy(c.v2p, l.v2p)
	copy(c.p2v, l.p2v)
	return c
}

// CopyFrom overwrites l with o's mapping. The layouts must be the same size;
// it is the allocation-free counterpart of Copy for reusable scratch layouts.
func (l *Layout) CopyFrom(o *Layout) {
	copy(l.v2p, o.v2p)
	copy(l.p2v, o.p2v)
}

// VirtualToPhys returns a copy of the virtual->physical assignment.
func (l *Layout) VirtualToPhys() []int {
	out := make([]int, len(l.v2p))
	copy(out, l.v2p)
	return out
}

// Validate checks the bijection invariant.
func (l *Layout) Validate() error {
	for v, p := range l.v2p {
		if l.p2v[p] != v {
			return fmt.Errorf("layout: v2p[%d]=%d but p2v[%d]=%d", v, p, p, l.p2v[p])
		}
	}
	return nil
}

// InteractionWeights accumulates, for every pair of logical qubits, how many
// two-qubit interactions the circuit implies between them. Gates on three or
// more qubits contribute one count to each of their qubit pairs, which is
// how the mapper "sees" an intact Toffoli.
func InteractionWeights(c *circuit.Circuit) map[[2]int]int {
	w := make(map[[2]int]int)
	for _, g := range c.Gates {
		if g.IsPseudo() {
			continue
		}
		qs := g.Qubits
		for i := 0; i < len(qs); i++ {
			for j := i + 1; j < len(qs); j++ {
				a, b := qs[i], qs[j]
				if a > b {
					a, b = b, a
				}
				w[[2]int{a, b}]++
			}
		}
	}
	return w
}

// GreedyWeighted is Greedy with noise-aware distances: when w is non-nil,
// "distance" between physical qubits is the minimum total edge weight
// (intended: -log CNOT success) read from the weighted-path oracle instead
// of hop count, so heavily interacting logical pairs land on reliable
// couplers — the noise-aware mapper the paper pairs with noise-aware routing
// (§4, citing Murali et al. and Tannu & Qureshi). Both distance sources are
// shared precomputed tables: the hop matrix lives on the Graph's distance
// oracle, and w is built once per (graph, calibration) by the cost model, so
// placement no longer pays a private all-pairs Dijkstra per call.
func GreedyWeighted(c *circuit.Circuit, g *topo.Graph, w *topo.WeightedOracle) (*Layout, error) {
	n := g.NumQubits()
	if c.NumQubits > n {
		return nil, fmt.Errorf("layout: circuit has %d qubits, device %d", c.NumQubits, n)
	}
	weights := InteractionWeights(c)
	dist := func(p, q int) float64 {
		if w != nil {
			return w.Dist(p, q)
		}
		if d := g.Dist(p, q); d >= 0 {
			return float64(d)
		}
		return math.Inf(1)
	}

	// Total interaction weight per logical qubit.
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

	// Seed: most interactive logical qubit on the highest-degree phys qubit.
	seedV := 0
	for v := 1; v < c.NumQubits; v++ {
		if total[v] > total[seedV] {
			seedV = v
		}
	}
	seedP := 0
	if w == nil {
		for p := 1; p < n; p++ {
			if g.Degree(p) > g.Degree(seedP) {
				seedP = p
			}
		}
	} else {
		// Noise-aware: seed at the weighted center — the qubit with the
		// smallest summed weighted distance to the rest of the device, so
		// the placement grows outward through reliable couplers.
		bestSum := math.Inf(1)
		for p := 0; p < n; p++ {
			sum := 0.0
			for q := 0; q < n; q++ {
				sum += dist(p, q)
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
		// Pick the unplaced logical qubit with max ties to placed ones,
		// breaking ties by total weight then index for determinism.
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
		// Place it at the free physical qubit minimizing weighted distance
		// to its placed partners (or nearest any placed qubit if isolated).
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
				if pw := pairWeight(bestV, u); pw > 0 {
					cost += float64(float64(pw) * dist(p, v2p[u])) // rounded: no fused multiply-add
					anyPartner = true
				}
			}
			if !anyPartner {
				for u := 0; u < c.NumQubits; u++ {
					if v2p[u] != -1 {
						cost += dist(p, v2p[u])
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

	// Fill padding virtual qubits into remaining physical slots in sorted
	// order for determinism.
	var freePhys []int
	for p := 0; p < n; p++ {
		if !usedPhys[p] {
			freePhys = append(freePhys, p)
		}
	}
	sort.Ints(freePhys)
	next := 0
	for v := c.NumQubits; v < n; v++ {
		v2p[v] = freePhys[next]
		next++
	}
	return FromVirtualToPhys(v2p)
}
