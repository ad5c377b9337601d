package route

import (
	"fmt"
	"sort"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// Groups generalizes the Trios router to multi-qubit gates of any arity,
// the extension the paper sketches in §4 ("Trios can naturally be extended
// to any multi-qubit operation of three or more qubits"): the operands of an
// intact MCX are routed into a single connected cluster by accreting them
// one at a time around a centroid, nearest first, never swapping through
// already-placed members.
type Groups struct {
	Seed int64
}

// Route implements Router. One- and two-qubit gates route like the
// baseline; CCX and MCX route as groups. It is a one-window session.
func (t *Groups) Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	return routeWhole(t, c, g, initial)
}

// routeGroup brings all virtual qubits into a connected cluster on the
// device.
func (s *state) routeGroup(vs []int) error {
	if len(vs) <= 1 {
		return nil
	}
	// Centroid: operand position minimizing total distance to the others.
	positions := func() []int {
		ps := make([]int, len(vs))
		for i, v := range vs {
			ps[i] = s.l.Phys(v)
		}
		return ps
	}
	ps := positions()
	bestIdx, bestSum := -1, int(^uint(0)>>1)
	for i, p := range ps {
		d := s.g.Distances(p)
		sum := 0
		for _, q := range ps {
			if d[q] < 0 {
				return fmt.Errorf("physical qubits %d and %d are disconnected", p, q)
			}
			sum += int(d[q])
		}
		if sum < bestSum {
			bestIdx, bestSum = i, sum
		}
	}

	// Accrete the rest around the centroid, nearest first. The cluster mask
	// doubles as bfsAvoid's avoid set: attach paths never swap through
	// already-placed members.
	cluster := make([]bool, s.g.NumQubits())
	cluster[ps[bestIdx]] = true
	rest := make([]int, 0, len(vs)-1)
	for i, v := range vs {
		if i != bestIdx {
			rest = append(rest, v)
		}
	}
	dCentroid := s.g.Distances(ps[bestIdx])
	sort.SliceStable(rest, func(i, j int) bool {
		return dCentroid[s.l.Phys(rest[i])] < dCentroid[s.l.Phys(rest[j])]
	})
	for _, v := range rest {
		p := s.l.Phys(v)
		if cluster[p] {
			return fmt.Errorf("internal: operand already inside cluster")
		}
		adjacent := false
		for _, nb := range s.g.Neighbors(p) {
			if cluster[nb] {
				adjacent = true
				break
			}
		}
		if !adjacent {
			goal := func(q int) bool {
				if cluster[q] {
					return false
				}
				for _, nb := range s.g.Neighbors(q) {
					if cluster[nb] {
						return true
					}
				}
				return false
			}
			path := s.bfsAvoid(p, goal, cluster)
			if path == nil {
				return fmt.Errorf("no path to attach physical qubit %d to the cluster", p)
			}
			s.swapAlong(path, 0)
		}
		cluster[s.l.Phys(v)] = true
	}
	return nil
}
