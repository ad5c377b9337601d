package route

import (
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// Stochastic reproduces the flavor of Qiskit 0.14's StochasticSwap router,
// the baseline the paper measures against (§5.2: "a stochastic routing
// policy is chosen"): the circuit is processed in dependency layers, and
// when a layer is blocked the router samples random SWAP sequences (biased
// toward reducing the layer's total distance) over several trials, keeping
// the shortest sequence found. It is deliberately weaker than the
// shortest-path Baseline router — that gap is part of what the paper's
// evaluation reflects.
//
// With TrioAware set, intact CCX gates are routed as trios using the same
// deterministic meeting-point strategy as the Trios router; the stochastic
// search applies only to two-qubit gates, mirroring how the paper grafts
// trio routing onto an existing routing pass.
type Stochastic struct {
	Seed int64
	// TrioAware enables CCX routing (for the Trios pipeline).
	TrioAware bool
	// Weight, when non-nil, makes the swap search noise-aware: candidate
	// swaps are delta-scored against the weighted-path tables (-log CNOT
	// success) instead of the integer hop matrix, so the random walk is
	// biased through reliable couplers. A nil Weight scores integer hop
	// counts.
	Weight func(a, b int) float64
	// Oracle, when non-nil, is the precomputed weighted-path table for
	// Weight (a cost model's per-(graph, calibration) memo).
	Oracle *topo.WeightedOracle
}

// stochasticTrials is the number of random swap-sequence attempts per
// blocked layer, low like the era-appropriate Qiskit setting.
const stochasticTrials = 4

// maxSeqLen bounds one trial's swap sequence; 2*diameter*pairs is always
// enough to bring a layer together, so hitting the bound only wastes a trial.
func maxSeqLen(g *topo.Graph, pending int) int {
	return 4 * g.NumQubits() * (pending + 1)
}

// Route implements Router. The frontier runs every gate it can; a blocked
// layer's ready two-qubit gates then drive one swap search, and the loop
// repeats until every gate has run.
func (s *Stochastic) Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	st, err := newState(g, initial, s.Seed, s.Weight, s.Oracle)
	if err != nil {
		return nil, err
	}
	f := newFrontier(c)
	// run hands step every ready gate that needs no swap search: barriers,
	// 1q gates, adjacent pairs, and trio gates, which route directly (Trios
	// grafts deterministic trio routing into the stochastic pass).
	run := func(i int) (bool, error) {
		gate := c.Gates[i]
		switch q := gate.Qubits; {
		case gate.Name == circuit.Barrier || len(q) == 1:
		case len(q) == 2:
			if !g.Connected(st.l.Phys(q[0]), st.l.Phys(q[1])) {
				return false, nil
			}
		case trioGate(gate.Name) && s.TrioAware:
		case trioGate(gate.Name):
			return false, fmt.Errorf("route: stochastic router needs TrioAware for %v (gate %d); decompose first", gate.Name, i)
		default:
			return false, fmt.Errorf("route: stochastic router cannot handle gate %v (gate %d)", gate.Name, i)
		}
		return true, st.step(gate, i, trioGates)
	}
	var pending [][2]int // virtual qubit pairs
	for {
		if err := f.drain(run); err != nil {
			return nil, err
		}
		if f.left == 0 {
			return st.result(), nil
		}
		// The front is blocked: collect its pending two-qubit pairs.
		pending = pending[:0]
		for _, i := range f.ready {
			if q := c.Gates[i].Qubits; len(q) == 2 {
				pending = append(pending, [2]int{q[0], q[1]})
			}
		}
		if len(pending) == 0 {
			return nil, fmt.Errorf("route: blocked with no pending two-qubit gates")
		}
		seq := s.searchSwaps(st, g, pending)
		if seq == nil {
			return nil, fmt.Errorf("route: stochastic search failed for layer with %d pending pairs", len(pending))
		}
		for _, e := range seq {
			st.out.SWAP(e[0], e[1])
			st.l.SwapPhys(e[0], e[1])
			st.swaps++
		}
	}
}

// searchSwaps runs several randomized trials to find a swap sequence making
// at least one pending pair adjacent (Qiskit's stochastic swap likewise
// settles for partial progress per round). Returns the shortest sequence.
func (s *Stochastic) searchSwaps(st *state, g *topo.Graph, pending [][2]int) [][2]int {
	var best [][2]int
	limit := maxSeqLen(g, len(pending))
	sc := st.stochScratch()
	for trial := 0; trial < stochasticTrials; trial++ {
		seq := s.oneTrial(st, g, pending, limit)
		if seq != nil && (best == nil || len(seq) < len(best)) {
			// The trial's sequence lives in scratch the next trial reuses,
			// so keep the winner in its own reused buffer.
			sc.bestBuf = append(sc.bestBuf[:0], seq...)
			best = sc.bestBuf
		}
	}
	return best
}

// stochScratch holds the per-state buffers oneTrial reuses across steps and
// trials, indexing pending pairs by the physical qubits they occupy so a
// candidate swap is scored against only the pairs it touches.
type stochScratch struct {
	trialL  *layout.Layout // scratch layout the trial mutates
	pairA   []int          // physical position of each pending pair's first qubit
	pairB   []int          // ... and second qubit
	pairsAt [][]int32      // per-physical-qubit list of pending-pair indices
	touched []int          // physical qubits whose pairsAt lists need clearing

	// Sweep buffers: inv marks the qubits a pending pair occupies (-1, else
	// 0); the candidate and improving sets hold edge-list indices (4-byte
	// stores instead of 16-byte edge copies) written with arithmetic cursors
	// instead of append; curW caches each pending pair's current weighted
	// distance once per step, halving the slab gathers in the delta loop.
	inv       []int
	candIdx   []int32
	improvIdx []int32
	curW      []float64

	// Incident-edge candidate collection: edgesAt[q] lists the edge-list
	// indices of q's couplings (ascending), so a step visits only the edges
	// touching an involved qubit instead of scanning the whole edge list;
	// edgeSeen is a step-stamped dedup mask (an edge with both endpoints
	// involved shows up in two incident lists).
	edgesAt  [][]int32
	edgeSeen []int
	step     int

	// Packed unweighted tables (a device has at most 255 qubits, so an
	// endpoint and a hop distance each fit a byte): edgePk packs each edge's
	// endpoints into one uint16, and packed[q*stride+k] (k < pCnt[q],
	// stride = pending pairs this layer) packs a touching pair's other
	// endpoint and current hop distance into one int32 (other<<8 | dist). A
	// delta entry is then one flat-array load, and the whole scoring working
	// set is a few L1-resident arrays.
	edgePk []uint16
	packed []int32
	pCnt   []int32

	// seqBuf backs the swap sequence the packed trial builds; bestBuf holds
	// the shortest sequence across a layer's trials. Reusing both keeps
	// searchSwaps allocation-free after the first blocked layer.
	seqBuf  [][2]int
	bestBuf [][2]int
}

func (st *state) stochScratch() *stochScratch {
	if st.stoch == nil {
		n := st.g.NumQubits()
		st.stoch = &stochScratch{
			trialL:  st.l.Copy(),
			pairsAt: make([][]int32, n),
		}
	}
	return st.stoch
}

// oneTrial simulates random swaps on a scratch layout until some pending
// pair becomes adjacent. Swaps are drawn from edges touching pending qubits;
// with high probability a distance-reducing edge is chosen, otherwise any
// such edge — the randomness that makes the era-appropriate baseline wander.
//
// A candidate swap (a, b) is scored by an O(pairs-touching-a,b) delta
// against the device's distance tables: only pairs with an endpoint on a or
// b change distance, and the swap improves the layer exactly when the summed
// delta of those pairs is negative. In noise-aware mode the same delta runs
// against the weighted-path tables, so "improving" means lowering the
// layer's summed -log success.
//
// The scoring sweep runs over the oracle's flat slabs with arithmetic
// selects instead of per-candidate branches. Adjacency is a slab compare
// (hop distance 1), mapping an endpoint through the swap is xor/mask
// arithmetic (swapSel), and membership in the candidate and improving sets
// is a masked cursor bump, so the only branches in the sweep are loop
// back-edges. The improving set is filled in edge order with the condition
// delta < 0, where delta can never be -0 or NaN on a connected device (see
// branchless.go).
func (s *Stochastic) oneTrial(st *state, g *topo.Graph, pending [][2]int, limit int) [][2]int {
	sc := st.stochScratch()
	l := sc.trialL
	l.CopyFrom(st.l)
	rng := st.rng
	nq := g.NumQubits()
	var wd []float64
	if st.weight != nil {
		wd = st.weightedOracle().Slab()
	}
	d8 := g.DistTable().Slab8()
	edges := g.EdgeList()
	if sc.inv == nil {
		sc.inv = make([]int, nq)
	}
	if len(sc.candIdx) <= len(edges) {
		// One spare slot: the branchless collectors store before the masked
		// cursor bump, so a rejected store can land one past the live set.
		sc.candIdx = make([]int32, len(edges)+1)
		sc.improvIdx = make([]int32, len(edges)+1)
	}
	if sc.edgesAt == nil {
		sc.edgesAt = make([][]int32, nq)
		for i, e := range edges {
			sc.edgesAt[e[0]] = append(sc.edgesAt[e[0]], int32(i))
			sc.edgesAt[e[1]] = append(sc.edgesAt[e[1]], int32(i))
		}
		sc.edgeSeen = make([]int, len(edges))
		sc.edgePk = make([]uint16, len(edges))
		for i, e := range edges {
			sc.edgePk[i] = uint16(e[0])<<8 | uint16(e[1])
		}
		sc.pCnt = make([]int32, nq)
	}
	stride := len(pending)
	if wd == nil && len(sc.packed) < nq*stride {
		sc.packed = make([]int32, nq*stride)
	}
	// The sequence builds in a reused scratch buffer (the caller copies the
	// winning trial out); a trial that makes no swap returns nil.
	if cap(sc.seqBuf) < limit {
		sc.seqBuf = make([][2]int, 0, limit)
	}
	seq := sc.seqBuf[:0]
	for len(seq) < limit {
		// A pending pair is adjacent exactly when its slab distance is 1.
		adjacent := false
		for _, p := range pending {
			adjacent = adjacent || d8[l.Phys(p[0])*nq+l.Phys(p[1])] == 1
		}
		if adjacent {
			if len(seq) == 0 {
				return nil
			}
			return seq
		}
		// Index the pending pairs by the physical qubits holding them, so a
		// candidate edge scores against only the pairs it moves; cache each
		// pair's current distance so the delta loops gather one slab entry
		// per visit instead of two.
		for _, q := range sc.touched {
			sc.inv[q] = 0
		}
		if wd != nil {
			for _, q := range sc.touched {
				sc.pairsAt[q] = sc.pairsAt[q][:0]
			}
			sc.touched = sc.touched[:0]
			sc.pairA = sc.pairA[:0]
			sc.pairB = sc.pairB[:0]
			sc.curW = sc.curW[:0]
			for i, p := range pending {
				a, b := l.Phys(p[0]), l.Phys(p[1])
				sc.pairA = append(sc.pairA, a)
				sc.pairB = append(sc.pairB, b)
				sc.curW = append(sc.curW, wd[a*nq+b])
				for _, q := range [2]int{a, b} {
					if sc.inv[q] == 0 {
						sc.touched = append(sc.touched, q)
					}
					sc.inv[q] = -1
					sc.pairsAt[q] = append(sc.pairsAt[q], int32(i))
				}
			}
		} else {
			for _, q := range sc.touched {
				sc.pCnt[q] = 0
			}
			sc.touched = sc.touched[:0]
			for _, p := range pending {
				a, b := l.Phys(p[0]), l.Phys(p[1])
				cd := int32(d8[a*nq+b])
				if sc.inv[a] == 0 {
					sc.touched = append(sc.touched, a)
				}
				sc.inv[a] = -1
				sc.packed[a*stride+int(sc.pCnt[a])] = int32(b)<<8 | cd
				sc.pCnt[a]++
				if sc.inv[b] == 0 {
					sc.touched = append(sc.touched, b)
				}
				sc.inv[b] = -1
				sc.packed[b*stride+int(sc.pCnt[b])] = int32(a)<<8 | cd
				sc.pCnt[b]++
			}
		}
		// Pass 1 — candidate collection in two cheap sweeps. First the
		// involved qubits' incident edge lists stamp this step's number into
		// the per-edge mask (short array walks, plain stores, duplicates
		// harmless); then one sequential scan of the stamp array gathers the
		// stamped edges in ascending index order, the order the RNG's pool
		// is indexed in. The scan touches one cache-resident int per edge
		// with a masked cursor bump (eqMask is -1 exactly on this step's
		// stamp), and neither sweep has a data-dependent branch.
		sc.step++
		step := sc.step
		for _, q := range sc.touched {
			for _, ei := range sc.edgesAt[q] {
				sc.edgeSeen[ei] = step
			}
		}
		cands := sc.candIdx
		nc := 0
		for idx := range sc.edgeSeen {
			cands[nc] = int32(idx)
			nc -= eqMask(sc.edgeSeen[idx], step)
		}
		// Pass 2 — branchless delta scoring over the candidates only: the
		// expensive pairsAt walks run for edges that can matter, and the
		// improving set fills through a sign-mask cursor bump instead of a
		// compare-and-append (delta < 0 exactly; never -0 or NaN on a
		// connected device — see branchless.go).
		improving := sc.improvIdx
		ni := 0
		if wd != nil {
			for _, ei := range cands[:nc] {
				e := edges[ei]
				e0, e1 := e[0], e[1]
				x := e0 ^ e1
				delta := 0.0
				for _, i := range sc.pairsAt[e0] {
					a, b := sc.pairA[i], sc.pairB[i]
					na, nb := swapSel(a, e0, e1, x), swapSel(b, e0, e1, x)
					delta += wd[na*nq+nb] - sc.curW[i]
				}
				for _, i := range sc.pairsAt[e1] {
					a, b := sc.pairA[i], sc.pairB[i]
					na, nb := swapSel(a, e0, e1, x), swapSel(b, e0, e1, x)
					delta += wd[na*nq+nb] - sc.curW[i]
				}
				neg := int(math.Float64bits(delta) >> 63)
				improving[ni] = ei
				ni += neg
			}
		} else {
			// Unweighted arm: a pair stored under e0 lands on e1, so its new
			// distance lives in e1's row (and vice versa) — hop counts are
			// exact integers, so reading the transposed element is safe. The
			// other endpoint moves only if it is the swap's far side, which
			// one eqMask select resolves. Everything the loop touches is a
			// flat packed array: edge endpoints come from one uint16, each
			// pair entry from one int32, and the distance gathers read the
			// byte mirror of the slab, so the working set stays L1-resident.
			for _, ei := range cands[:nc] {
				pk := sc.edgePk[ei]
				e0 := int(pk >> 8)
				e1 := int(pk & 0xff)
				b0, b1 := e0*nq, e1*nq
				delta := 0
				base := e0 * stride
				for k := 0; k < int(sc.pCnt[e0]); k++ {
					pp := int(sc.packed[base+k])
					oo := pp >> 8
					no := oo ^ ((oo ^ e0) & eqMask(oo, e1))
					delta += int(d8[b1+no]) - (pp & 0xff)
				}
				base = e1 * stride
				for k := 0; k < int(sc.pCnt[e1]); k++ {
					pp := int(sc.packed[base+k])
					oo := pp >> 8
					no := oo ^ ((oo ^ e1) & eqMask(oo, e0))
					delta += int(d8[b0+no]) - (pp & 0xff)
				}
				neg := (delta >> 63) & 1
				improving[ni] = ei
				ni += neg
			}
		}
		pool := improving[:ni]
		// Random exploration keeps the search from deadlocking on plateaus
		// and reproduces the baseline's wander. (An empty improving set
		// draws no number, so the RNG stream depends on the short-circuit.)
		if ni == 0 || rng.Float64() < 0.3 {
			pool = cands[:nc]
		}
		if len(pool) == 0 {
			return nil
		}
		e := edges[pool[rng.Intn(len(pool))]]
		l.SwapPhys(e[0], e[1])
		seq = append(seq, e)
	}
	return nil
}
