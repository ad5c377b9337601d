package route

import (
	"fmt"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// Trios is the paper's modified routing pass: one- and two-qubit gates are
// routed exactly like the baseline, but an intact CCX is routed as a unit.
// The three operands are brought into a connected neighborhood by moving
// all-but-one of them toward a meeting qubit chosen to minimize the total
// SWAP path length (§4). When the second qubit's path would land on the
// first's position, it stops one hop earlier, making the first qubit the
// middle of the line and saving a SWAP.
type Trios struct {
	Seed int64
	// Weight enables noise-aware path selection when non-nil.
	Weight func(a, b int) float64
	// Oracle, when non-nil, is the precomputed weighted-path table for
	// Weight (a cost model's per-(graph, calibration) memo).
	Oracle *topo.WeightedOracle
}

// Route implements Router as a one-window session.
func (t *Trios) Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	return routeWhole(t, c, g, initial)
}

// trioRole returns the operand a trio gate needs coupled to both others,
// or -1: CCX runs on any connected trio, while the Margolus gates RCCX and
// RCCXdg need their target in the middle of a line.
func trioRole(gate circuit.Gate) int {
	if gate.Name == circuit.CCX {
		return -1
	}
	return gate.Qubits[2]
}

// trioReady reports whether a trio gate's operands already sit in a
// placement that fits its role.
func (s *state) trioReady(gate circuit.Gate) bool {
	target := -1
	if v := trioRole(gate); v >= 0 {
		target = s.l.Phys(v)
	}
	q := gate.Qubits
	return s.trioPlaced(s.l.Phys(q[0]), s.l.Phys(q[1]), s.l.Phys(q[2]), target)
}

// trioPlaced reports whether a trio placement satisfies the gate's shape
// requirement: any connected trio when targetPhys < 0, otherwise a triangle
// or a line with the target in the middle (the Margolus constraint).
func (s *state) trioPlaced(p0, p1, p2, targetPhys int) bool {
	mid, ok := s.g.LinearTrio(p0, p1, p2)
	if !ok {
		return false
	}
	if targetPhys < 0 || s.g.Triangle(p0, p1, p2) {
		return true
	}
	return mid == targetPhys
}

// routeTrio brings a trio gate's operands into a connected neighborhood
// that fits its role (trioRole). After generic trio routing, a wrong-middle
// line is fixed with one SWAP of the target into the middle position.
func (s *state) routeTrio(gate circuit.Gate) error {
	v0, v1, v2, targetV := gate.Qubits[0], gate.Qubits[1], gate.Qubits[2], trioRole(gate)
	const maxIter = 8
	for iter := 0; iter < maxIter; iter++ {
		p0, p1, p2 := s.l.Phys(v0), s.l.Phys(v1), s.l.Phys(v2)
		targetPhys := -1
		if targetV >= 0 {
			targetPhys = s.l.Phys(targetV)
		}
		if s.trioPlaced(p0, p1, p2, targetPhys) {
			return nil
		}
		// Connected but with the wrong operand in the middle: one SWAP of
		// the target with the middle fixes the roles.
		if mid, ok := s.g.LinearTrio(p0, p1, p2); ok && targetPhys >= 0 && s.g.Connected(mid, targetPhys) {
			s.out.SWAP(mid, targetPhys)
			s.l.SwapPhys(mid, targetPhys)
			s.swaps++
			continue
		}

		// Choose the destination: the operand whose summed shortest-path
		// distance to the other two is minimal.
		vs := []int{v0, v1, v2}
		ps := []int{p0, p1, p2}
		bestIdx, bestSum := -1, int(^uint(0)>>1)
		for i := 0; i < 3; i++ {
			d := s.g.Distances(ps[i])
			sum := 0
			for j := 0; j < 3; j++ {
				if d[ps[j]] < 0 {
					return fmt.Errorf("physical qubits %d and %d are disconnected", ps[i], ps[j])
				}
				sum += int(d[ps[j]])
			}
			if sum < bestSum {
				bestIdx, bestSum = i, sum
			}
		}
		vd := vs[bestIdx]
		var others [2]int
		for i, k := 0, 0; i < 3; i++ {
			if i != bestIdx {
				others[k] = vs[i]
				k++
			}
		}
		// Route the closer of the two movers first.
		dDest := s.g.Distances(s.l.Phys(vd))
		va, vb := others[0], others[1]
		if dDest[s.l.Phys(vb)] < dDest[s.l.Phys(va)] {
			va, vb = vb, va
		}

		// Step 1: bring va adjacent to vd.
		if !s.g.Connected(s.l.Phys(va), s.l.Phys(vd)) {
			p := s.path(s.l.Phys(va), s.l.Phys(vd))
			if p == nil {
				return fmt.Errorf("no path between physical qubits %d and %d", s.l.Phys(va), s.l.Phys(vd))
			}
			s.swapAlong(p, 1)
		}

		// Step 2: bring vb adjacent to vd or to va (overlap trimming: ending
		// next to va makes va the middle qubit and saves a SWAP). The search
		// avoids moving through vd's and va's positions so step 1's work is
		// not undone. In noise-aware mode the attach point minimizes the
		// path weight plus the weight of the edge that will join the trio,
		// so the Toffoli's own CNOTs also land on good couplers.
		pd, pa, pb := s.l.Phys(vd), s.l.Phys(va), s.l.Phys(vb)
		if !s.g.Connected(pb, pd) && !s.g.Connected(pb, pa) {
			goal := func(q int) bool {
				return q != pd && q != pa && (s.g.Connected(q, pd) || s.g.Connected(q, pa))
			}
			var p []int
			if s.weight != nil {
				p = s.weightedAttach(pb, pd, pa)
			} else {
				p = s.bfsAvoid(pb, goal, s.avoidSet(pd, pa))
			}
			if p == nil {
				// Fallback: unrestricted path toward the destination; the
				// loop re-checks connectivity after positions shift.
				p = s.path(pb, pd)
				if p == nil {
					return fmt.Errorf("no path between physical qubits %d and %d", pb, pd)
				}
				s.swapAlong(p, 1)
				continue
			}
			s.swapAlong(p, 0)
		}

		// Loop to the top, which re-checks connectivity and the role
		// constraint and applies the middle-fix swap if needed.
	}
	return fmt.Errorf("trio (%d,%d,%d) did not converge to a connected placement", v0, v1, v2)
}

// weightedAttach finds, in noise-aware mode, the best position from which
// vb can join the trio: Dijkstra from `from` avoiding pd and pa, scoring
// each candidate attach node by path weight plus the cheapest edge that
// connects it to pd or pa. Returns the path to the winning node, or nil.
func (s *state) weightedAttach(from, pd, pa int) []int {
	n := s.g.NumQubits()
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf()
		prev[i] = -1
	}
	dist[from] = 0
	for {
		// Extract-min without a heap: graphs here are tiny.
		u, best := -1, inf()
		for q := 0; q < n; q++ {
			if !done[q] && dist[q] < best {
				u, best = q, dist[q]
			}
		}
		if u == -1 {
			break
		}
		done[u] = true
		for _, nb := range s.g.Neighbors(u) {
			if nb == pd || nb == pa {
				continue
			}
			w := s.weight(u, nb)
			if w < 0 {
				w = 0
			}
			if nd := dist[u] + w; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = u
			}
		}
	}
	// Score candidates: path weight + best connection edge weight.
	bestNode, bestScore := -1, inf()
	for q := 0; q < n; q++ {
		if q == pd || q == pa || dist[q] == inf() {
			continue
		}
		conn := inf()
		if s.g.Connected(q, pd) {
			conn = s.weight(q, pd)
		}
		if s.g.Connected(q, pa) {
			if w := s.weight(q, pa); w < conn {
				conn = w
			}
		}
		if conn == inf() {
			continue
		}
		if score := dist[q] + conn; score < bestScore {
			bestNode, bestScore = q, score
		}
	}
	if bestNode == -1 {
		return nil
	}
	var rev []int
	for q := bestNode; q != -1; q = prev[q] {
		rev = append(rev, q)
	}
	path := make([]int, len(rev))
	for i, q := range rev {
		path[len(rev)-1-i] = q
	}
	return path
}

func inf() float64 { return 1e308 }

// bfsAvoid finds a shortest path from `from` to any node satisfying goal,
// never visiting nodes marked in avoid (a per-physical-qubit mask, typically
// s.avoidBuf). Returns nil if unreachable; otherwise the result lives in the
// state's path scratch buffer, valid until the next path or bfsAvoid call.
// Tie-breaks deterministically by visit order (ascending neighbor index).
func (s *state) bfsAvoid(from int, goal func(int) bool, avoid []bool) []int {
	if goal(from) {
		s.pathBuf = append(s.pathBuf[:0], from)
		return s.pathBuf
	}
	prev := s.prevBuf
	for i := range prev {
		prev[i] = -2 // unvisited
	}
	prev[from] = -1
	queue := append(s.queueBuf[:0], from)
	defer func() { s.queueBuf = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		q := queue[head]
		for _, nb := range s.g.Neighbors(q) {
			if prev[nb] != -2 || avoid[nb] {
				continue
			}
			prev[nb] = q
			if goal(nb) {
				hops := 0
				for x := nb; x != -1; x = prev[x] {
					hops++
				}
				path := s.pathBuf[:0]
				for i := 0; i < hops; i++ {
					path = append(path, 0)
				}
				for x, i := nb, hops-1; x != -1; x, i = prev[x], i-1 {
					path[i] = x
				}
				s.pathBuf = path
				return path
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

// avoidSet clears and fills the state's avoid mask with the given qubits.
func (s *state) avoidSet(qs ...int) []bool {
	for i := range s.avoidBuf {
		s.avoidBuf[i] = false
	}
	for _, q := range qs {
		s.avoidBuf[q] = true
	}
	return s.avoidBuf
}
