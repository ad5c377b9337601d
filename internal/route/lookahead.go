package route

import (
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// Lookahead is a SABRE-style router representing the "lookahead" class of
// prior work the paper's §3 discusses (Wille et al., Baker et al.): when the
// front layer is blocked it picks the SWAP minimizing a weighted sum of the
// front layer's distances and an extended window of upcoming multi-qubit
// gates, instead of greedily finishing one gate at a time. The paper argues
// lookahead "treats the symptoms" of premature decomposition; keeping it in
// the repo lets the ablation quantify exactly that: Trios still wins with a
// lookahead baseline.
//
// With TrioAware set, intact CCX gates participate in scoring via their
// meeting-point distance and are emitted once their trio is connected.
type Lookahead struct {
	Seed int64
	// TrioAware enables CCX routing for the Trios pipeline.
	TrioAware bool
	// Weight, when non-nil, makes swap scoring noise-aware: gate costs are
	// weighted-path distances (-log CNOT success) from the oracle tables
	// instead of hop counts, so the chosen SWAPs steer the window through
	// reliable couplers. A nil Weight scores hop counts.
	Weight func(a, b int) float64
	// Oracle, when non-nil, is the precomputed weighted-path table for
	// Weight (a cost model's per-(graph, calibration) memo).
	Oracle *topo.WeightedOracle
}

// The scoring window: the first lookaheadWindow multi-qubit gates not yet
// run, the ready ones (the front layer) at weight 1 and the rest (the
// extended set) at extendedWeight.
const (
	lookaheadWindow = 20
	extendedWeight  = 0.5
)

// winGate is one window gate's scoring shape, captured once per blocked
// iteration: pre-resolved physical operands plus the accumulation weight
// (1 for the front layer, extendedWeight for the extended set).
type winGate struct {
	w          float64
	arity      int
	p0, p1, p2 int
}

// Route implements Router.
//
// The frontier runs every executable gate; window collection then scans
// from the first gate not yet run. Swap scoring walks only the window
// gates, each cost an O(1) distance-table lookup, accumulating front layer
// first, then the extended set, in program order.
func (lk *Lookahead) Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	s, err := newState(g, initial, lk.Seed, lk.Weight, lk.Oracle)
	if err != nil {
		return nil, err
	}
	f := newFrontier(c)
	n := len(c.Gates)
	tab := g.DistTable()
	d, nq := tab.Slab(), tab.NumQubits()
	var worc *topo.WeightedOracle
	if lk.Weight != nil {
		worc = s.weightedOracle()
	}
	edges := g.EdgeList()

	// Cost slabs for the branchless sweep: pair[a*nq+b] is a 2q gate's
	// remaining routing cost with operands at (a, b) — hops-to-adjacent, or
	// in noise-aware mode the -log success of the movement plus the landing
	// coupler; trio feeds the 3q meeting-point min-sum, whose unweighted
	// form subtracts trioAdj at the end. Building them once turns every
	// per-candidate gate cost into one load with no weighted/unweighted
	// branch in the sweep. (Unweighted sums stay exact in float64: hop
	// counts are tiny ints.)
	cost := slabCosts{pair: make([]float64, nq*nq), trio: make([]float64, nq*nq), nq: nq}
	if worc != nil {
		copy(cost.pair, worc.Slab())
		copy(cost.trio, worc.Slab())
	} else {
		for i, h := range d {
			cost.pair[i] = float64(h - 1)
			cost.trio[i] = float64(h)
		}
		cost.trioAdj = 2
	}

	// Window delta-scoring state, used when every score term is exact in
	// float64: unweighted costs are small integers and extendedWeight 0.5
	// keeps each term and every partial sum a dyadic rational, so "baseline
	// + delta over the gates a swap touches" reproduces the full window sum
	// bit for bit while doing a fraction of its work. Weighted costs take
	// the full branchless sweep below.
	deltaOK := worc == nil
	var (
		winTerm  []float64 // per window entry: weight * cost at rest
		winAt    [][]int32 // per physical qubit: window entries touching it
		winMark  []int     // round stamp for lazily resetting winAt rows
		winRound int
	)
	if deltaOK {
		winAt = make([][]int32, nq)
		winMark = make([]int, nq)
	}

	lastSwap := [2]int{-1, -1}
	// stall counts swaps since the last executed gate; past the budget the
	// router abandons scoring and routes the first front gate directly,
	// guaranteeing progress (score plateaus can otherwise oscillate).
	stall := 0
	stallBudget := 2 * g.NumQubits()

	// run emits a ready gate whose operands already sit where the device
	// can run it. Running a gate moves no qubit, so no gate it passes over
	// can become executable until the next swap.
	run := func(i int) (bool, error) {
		gate := c.Gates[i]
		switch q := gate.Qubits; {
		case gate.Name == circuit.Barrier || len(q) == 1:
		case len(q) == 2:
			if !g.Connected(s.l.Phys(q[0]), s.l.Phys(q[1])) {
				return false, nil
			}
		case trioGate(gate.Name) && lk.TrioAware:
			if !s.trioReady(gate) {
				return false, nil
			}
		case trioGate(gate.Name):
			return false, fmt.Errorf("route: lookahead router needs TrioAware for %v (gate %d)", gate.Name, i)
		case len(q) > 2:
			return false, fmt.Errorf("route: lookahead router cannot handle gate %v (gate %d)", gate.Name, i)
		default:
			return false, nil
		}
		s.emitMapped(gate)
		lastSwap = [2]int{-1, -1}
		stall = 0
		return true, nil
	}

	head := 0 // every gate below head has run
	var front, extended []circuit.Gate
	var win []winGate
	involved := s.involved
	for {
		if err := f.drain(run); err != nil {
			return nil, err
		}
		if f.left == 0 {
			return s.result(), nil
		}

		// Collect the blocked front layer and the extended window, scanning
		// from the first gate not yet run.
		for head < n && f.done[head] {
			head++
		}
		front, extended = front[:0], extended[:0]
		count := 0
		for i := head; i < n && count < lookaheadWindow; i++ {
			if f.done[i] {
				continue
			}
			gate := c.Gates[i]
			if len(gate.Qubits) < 2 || gate.Name == circuit.Barrier {
				continue
			}
			if f.pending[i] == 0 {
				front = append(front, gate)
			} else {
				extended = append(extended, gate)
			}
			count++
		}
		if len(front) == 0 {
			return nil, fmt.Errorf("route: blocked with empty front layer")
		}

		if stall >= stallBudget {
			// Escape hatch: route the first blocked gate directly.
			gate := front[0]
			switch len(gate.Qubits) {
			case 2:
				if err := s.routePair(gate.Qubits[0], gate.Qubits[1]); err != nil {
					return nil, err
				}
			case 3:
				if err := s.routeTrio(gate); err != nil {
					return nil, err
				}
			}
			stall = 0
			lastSwap = [2]int{-1, -1}
			continue
		}

		// Candidate swaps: edges touching front-layer operands.
		for i := range involved {
			involved[i] = false
		}
		for _, gate := range front {
			for _, q := range gate.Qubits {
				involved[s.l.Phys(q)] = true
			}
		}
		// Branchless sweep. Window operands are resolved to physical qubits
		// once (the layout is fixed while scoring), in accumulation order:
		// front layer at weight 1, then the extended set at extendedWeight.
		// Each candidate maps every operand through the hypothetical swap
		// with xor/mask arithmetic instead of mutating the layout, reads its
		// cost from the flat slab, and feeds a sign-mask best-select — no
		// compare-and-branch anywhere on the scoring path, so the sweep
		// pipelines across candidates.
		win = win[:0]
		for _, gate := range front {
			win = appendWinGate(win, s, gate, 1)
		}
		for _, gate := range extended {
			win = appendWinGate(win, s, gate, extendedWeight)
		}
		bestIdx := -1
		bestScore := 1e18
		bb := math.Float64bits(bestScore)
		if deltaOK {
			// Baseline pass: score every window gate once at its current
			// position (the exact term the full sweep would add), index
			// the entries by the physical qubits they touch, and sum the
			// at-rest score in window order.
			winRound++
			if cap(winTerm) < len(win) {
				winTerm = make([]float64, len(win))
			}
			winTerm = winTerm[:len(win)]
			score0 := 0.0
			for wi := range win {
				wg := &win[wi]
				term := wg.score(&cost, 0, 0, 0)
				winTerm[wi] = term
				score0 += term
				qs := [3]int{wg.p0, wg.p1, wg.p2}
				for _, q := range qs[:wg.arity] {
					if winMark[q] != winRound {
						winMark[q] = winRound
						winAt[q] = winAt[q][:0]
					}
					winAt[q] = append(winAt[q], int32(wi))
				}
			}
			for idx, e := range edges {
				if !involved[e[0]] && !involved[e[1]] {
					continue
				}
				if e == lastSwap {
					continue // anti-oscillation
				}
				e0, e1 := e[0], e[1]
				x := e0 ^ e1
				delta := 0.0
				if winMark[e0] == winRound {
					for _, wi := range winAt[e0] {
						delta += win[wi].score(&cost, e0, e1, x) - winTerm[wi]
					}
				}
				if winMark[e1] == winRound {
					for _, wi := range winAt[e1] {
						wg := &win[wi]
						// A gate touching both endpoints already scored in
						// e0's walk: zero its term with the arity-aware
						// touch mask instead of branching.
						am := eqMask(wg.arity, 3)
						t0 := eqMask(wg.p0, e0) | eqMask(wg.p1, e0) | eqMask(wg.p2, e0)&am
						dd := wg.score(&cost, e0, e1, x) - winTerm[wi]
						delta += math.Float64frombits(math.Float64bits(dd) &^ uint64(int64(t0)))
					}
				}
				score := score0 + delta
				m := int(int64(math.Float64bits(score-bestScore)) >> 63)
				um := uint64(m)
				bb = math.Float64bits(score)&um | bb&^um
				bestScore = math.Float64frombits(bb)
				bestIdx = idx&m | bestIdx&^m
			}
		} else {
			for idx, e := range edges {
				if !involved[e[0]] && !involved[e[1]] {
					continue
				}
				if e == lastSwap {
					continue // anti-oscillation
				}
				e0, e1 := e[0], e[1]
				x := e0 ^ e1
				score := 0.0
				for wi := range win {
					score += win[wi].score(&cost, e0, e1, x)
				}
				m := int(int64(math.Float64bits(score-bestScore)) >> 63)
				um := uint64(m)
				bb = math.Float64bits(score)&um | bb&^um
				bestScore = math.Float64frombits(bb)
				bestIdx = idx&m | bestIdx&^m
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("route: no candidate swap for blocked layer")
		}
		bestEdge := edges[bestIdx]
		s.out.SWAP(bestEdge[0], bestEdge[1])
		s.l.SwapPhys(bestEdge[0], bestEdge[1])
		s.swaps++
		lastSwap = bestEdge
		stall++
	}
}
