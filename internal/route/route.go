// Package route inserts SWAP gates so that every multi-qubit gate of a
// circuit acts on connected physical qubits. It provides the conventional
// pairwise router used as the Qiskit-like baseline and the Trios router that
// moves Toffoli trios to a common neighborhood as a unit (§4 of the paper).
package route

import (
	"fmt"
	"math/rand"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// Result is the outcome of routing: a physical-qubit circuit whose
// multi-qubit gates all respect the coupling graph, the final placement
// after all inserted SWAPs, and counters.
type Result struct {
	Circuit    *circuit.Circuit
	Final      *layout.Layout
	SwapsAdded int
}

// Router produces hardware-respecting circuits from logical ones.
type Router interface {
	// Route rewrites c onto physical qubits of g starting from the given
	// placement. The initial layout is not mutated.
	Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error)
}

// state carries the shared mechanics of both routers, including the scratch
// buffers that keep the per-gate hot loops allocation-free: one routing run
// owns its state, so buffers are reused freely across gates.
type state struct {
	g     *topo.Graph
	l     *layout.Layout
	out   *circuit.Circuit
	swaps int
	rng   *rand.Rand
	// weight, when non-nil, selects noise-aware Dijkstra paths whose edge
	// weight is -log(CNOT success), per the paper's noise-aware extension.
	weight func(a, b int) float64
	// worc is the weighted-path oracle for weight: injected by the caller
	// when a cost model has already memoized it for this (graph,
	// calibration) pair, else built lazily on first use (one Dijkstra sweep
	// per source, amortized over every query of the run).
	worc *topo.WeightedOracle
	// prefer is the tie-break hook handed to the distance oracle's path walk;
	// hoisted here so path() does not allocate a closure per query.
	prefer func(cands []int32) int
	// pathBuf backs path and bfsAvoid results; valid until the next call.
	pathBuf []int
	// scratch buffers sized to the device, reused by routers' inner loops.
	involved []bool // per-physical-qubit marks ("involved" sets)
	prevBuf  []int  // bfsAvoid predecessor table
	queueBuf []int  // bfsAvoid BFS queue
	avoidBuf []bool // bfsAvoid avoid-set marks
	// stoch is the stochastic router's trial scratch, built on first use.
	stoch *stochScratch
}

func newState(g *topo.Graph, initial *layout.Layout, seed int64, weight func(a, b int) float64, worc *topo.WeightedOracle) (*state, error) {
	if initial.Size() != g.NumQubits() {
		return nil, fmt.Errorf("route: layout covers %d qubits, device has %d", initial.Size(), g.NumQubits())
	}
	n := g.NumQubits()
	s := &state{
		g:        g,
		l:        initial.Copy(),
		out:      circuit.New(n),
		rng:      rand.New(rand.NewSource(seed)),
		weight:   weight,
		worc:     worc,
		involved: make([]bool, n),
		prevBuf:  make([]int, n),
		avoidBuf: make([]bool, n),
	}
	s.prefer = func(cands []int32) int { return s.rng.Intn(len(cands)) }
	return s, nil
}

// weightedOracle returns the state's weighted-path tables, building them on
// first use when the caller did not inject a shared (memoized) oracle.
func (s *state) weightedOracle() *topo.WeightedOracle {
	if s.worc == nil {
		s.worc = topo.NewWeightedOracle(s.g, s.weight)
	}
	return s.worc
}

// path returns a routing path between physical qubits: oracle shortest path
// with stochastic tie-breaking, or weighted-oracle (Dijkstra) paths when a
// noise weight is set. The returned slice is the state's scratch buffer,
// valid until the next path or bfsAvoid call.
func (s *state) path(from, to int) []int {
	if s.weight != nil {
		p, ok := s.weightedOracle().PathAppend(s.pathBuf[:0], from, to)
		s.pathBuf = p[:0:cap(p)]
		if !ok {
			return nil
		}
		return p
	}
	p, ok := s.g.ShortestPathAppend(s.pathBuf[:0], from, to, s.prefer)
	s.pathBuf = p[:0:cap(p)]
	if !ok {
		return nil
	}
	return p
}

// swapAlong emits SWAPs that move the data at path[0] forward to
// path[len(path)-1-stop], updating the layout. stop=1 halts one hop short
// (the moved qubit ends adjacent to the path's endpoint).
func (s *state) swapAlong(path []int, stop int) {
	for i := 0; i+stop < len(path)-1; i++ {
		s.out.SWAP(path[i], path[i+1])
		s.l.SwapPhys(path[i], path[i+1])
		s.swaps++
	}
}

// emitMapped appends gate g with its virtual qubits replaced by their
// current physical positions, its operands carved from the output's slab.
func (s *state) emitMapped(g circuit.Gate) {
	s.out.AppendMapped(g, s.l.Phys)
}

// result finalizes the routing state.
func (s *state) result() *Result {
	return &Result{Circuit: s.out, Final: s.l, SwapsAdded: s.swaps}
}

// trioGate reports whether a gate kind routes as a three-qubit unit.
func trioGate(n circuit.Name) bool {
	return n == circuit.CCX || n == circuit.RCCX || n == circuit.RCCXdg
}

// Baseline is the conventional pairwise router: it handles one- and
// two-qubit gates only, moving the first operand along a shortest path until
// the pair is adjacent — the structure-blind strategy the paper's §3
// motivates against. Seed drives stochastic tie-breaks between equal-length
// shortest paths (Qiskit's default router is likewise stochastic).
type Baseline struct {
	Seed int64
	// Weight enables noise-aware path selection when non-nil.
	Weight func(a, b int) float64
	// Oracle, when non-nil, is the precomputed weighted-path table for
	// Weight (typically a cost model's per-(graph, calibration) memo);
	// when nil and Weight is set, the router builds its own.
	Oracle *topo.WeightedOracle
}

// Route implements Router as a one-window session.
func (b *Baseline) Route(c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	return routeWhole(b, c, g, initial)
}

// routePair inserts SWAPs until virtual qubits va and vb are adjacent.
func (s *state) routePair(va, vb int) error {
	pa, pb := s.l.Phys(va), s.l.Phys(vb)
	if s.g.Connected(pa, pb) {
		return nil
	}
	p := s.path(pa, pb)
	if p == nil {
		return fmt.Errorf("no path between physical qubits %d and %d", pa, pb)
	}
	s.swapAlong(p, 1)
	return nil
}
