// Package rewrite implements a rule-driven gate-rewrite engine that
// saturates a circuit to a fixpoint under a declarative rule table, in the
// style of equality-saturation optimizers (Diospyros, ASPLOS'21): instead of
// rescanning the whole circuit whenever any pair fired, which goes quadratic
// on long cancellation chains, the engine keeps every gate in a
// doubly-linked wire list per qubit and drives a worklist: when a rewrite
// removes or replaces a gate, only the gates adjacent to the change are
// re-enqueued. Each rule either deletes nodes or replaces a gate in place
// with a gate on a subset of its qubits, so the position order of surviving
// gates never changes and the result is deterministic for a fixed rule
// table and pop order.
//
// Every rule preserves the circuit's unitary exactly or up to global phase
// (Rule.Exact distinguishes the two), so every rewrite is sim-verifiable
// with the engine's equivalence checker, which compares up to global phase.
// A rewrite budget bounds total work at O(gates·rules) amortized: each
// application strictly decreases gate count or merges two gates into one,
// and the budget guard stops pathological rule tables from cycling.
package rewrite

import (
	"math"
	"math/rand"

	"trios/internal/circuit"
)

// Options configures a Saturate run.
type Options struct {
	// Rules is the rule table to saturate under; nil means DefaultRules().
	Rules []Rule
	// MaxRewrites caps total rule applications; 0 means 64 + 16·gates.
	// When the budget is exhausted the engine stops early (Stats records
	// it) — the circuit is still valid, just not fully saturated.
	MaxRewrites int
	// WindowLimit caps how many gates a commuting-window search may cross
	// on one wire walk; 0 means 128.
	WindowLimit int
	// AdjacentOK, when non-nil, gates rules that synthesize a two-qubit
	// gate on a pair that did not already carry one (the CCX control
	// absorption): the new pair must satisfy the predicate. Post-routing
	// callers pass the coupling graph's adjacency so rewrites never
	// un-route a circuit; nil means unrestricted (logical circuits).
	AdjacentOK func(a, b int) bool
	// PopSeed permutes worklist pop order when nonzero. The default (0)
	// is deterministic FIFO; the confluence fuzz target uses seeds to
	// check that different application orders converge to the same gate
	// counts.
	PopSeed int64
}

// Stats reports what a Saturate run did.
type Stats struct {
	// Applied counts rule applications by rule name.
	Applied map[string]int
	// Rewrites is the total number of rule applications.
	Rewrites int
	// BudgetExhausted is set when the engine stopped on MaxRewrites
	// rather than reaching a fixpoint.
	BudgetExhausted bool
	// Gate counts before and after (total and two-qubit, SWAP counted as
	// one gate here, not its 3-CX expansion).
	GatesIn, GatesOut       int
	TwoQubitIn, TwoQubitOut int
}

// Saturate rewrites c to a fixpoint under the rule table and returns the
// optimized circuit plus run statistics. The input circuit is not modified.
func Saturate(c *circuit.Circuit, opts Options) (*circuit.Circuit, Stats) {
	rules := opts.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	e := newEngine(c, opts)
	e.run(rules)
	return e.emit(), e.stats
}

const none = int32(-1)

// engine holds the mutable rewrite state: gates indexed by node id (node
// ids are original circuit positions; replacements keep their id so
// ascending id order is always a valid emission order), per-operand wire
// links, and the worklist.
type engine struct {
	nq    int
	gates []circuit.Gate
	alive []bool
	// prev[i][k] / next[i][k] link node i to its neighbors on the wire of
	// its k-th operand qubit (none at the ends).
	prev, next [][]int32
	// head[q] / tail[q] are the first/last alive node on qubit q's wire.
	head, tail []int32

	queue  []int32
	qhead  int
	queued []bool
	rng    *rand.Rand

	budget      int
	windowLimit int
	adjacentOK  func(a, b int) bool
	stats       Stats
}

func newEngine(c *circuit.Circuit, opts Options) *engine {
	n := len(c.Gates)
	e := &engine{
		nq:          c.NumQubits,
		gates:       make([]circuit.Gate, n),
		alive:       make([]bool, n),
		prev:        make([][]int32, n),
		next:        make([][]int32, n),
		head:        make([]int32, c.NumQubits),
		tail:        make([]int32, c.NumQubits),
		queued:      make([]bool, n),
		budget:      opts.MaxRewrites,
		windowLimit: opts.WindowLimit,
		adjacentOK:  opts.AdjacentOK,
	}
	if e.budget == 0 {
		e.budget = 64 + 16*n
	}
	if e.windowLimit == 0 {
		e.windowLimit = 128
	}
	if opts.PopSeed != 0 {
		e.rng = rand.New(rand.NewSource(opts.PopSeed))
	}
	for q := range e.head {
		e.head[q], e.tail[q] = none, none
	}
	copy(e.gates, c.Gates)
	for i := range e.gates {
		g := e.gates[i]
		e.alive[i] = true
		e.prev[i] = make([]int32, len(g.Qubits))
		e.next[i] = make([]int32, len(g.Qubits))
		for k, q := range g.Qubits {
			e.prev[i][k] = e.tail[q]
			e.next[i][k] = none
			if e.tail[q] != none {
				t := e.tail[q]
				e.next[t][wireIdx(e.gates[t], q)] = int32(i)
			} else {
				e.head[q] = int32(i)
			}
			e.tail[q] = int32(i)
		}
	}
	e.stats.Applied = make(map[string]int)
	e.stats.GatesIn = n
	e.stats.TwoQubitIn = twoQubitCount(c.Gates)
	return e
}

// wireIdx returns the operand index of qubit q in gate g. Gates never
// repeat a qubit (NewGate validates), so the scan is over at most a few
// operands.
func wireIdx(g circuit.Gate, q int) int {
	for k, x := range g.Qubits {
		if x == q {
			return k
		}
	}
	panic("rewrite: qubit not an operand of gate")
}

func twoQubitCount(gates []circuit.Gate) int {
	n := 0
	for _, g := range gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

func (e *engine) run(rules []Rule) {
	// Structural rules (SWAP absorption) re-express gates rather than
	// delete them, and their output can block cancellations another node
	// was about to make. Saturating the deletion/merge rules to a fixpoint
	// first guarantees the structural pass never consumes a gate a cheaper
	// rule wanted.
	safe := rules[:0:0]
	for _, r := range rules {
		if !r.Structural {
			safe = append(safe, r)
		}
	}
	if len(safe) < len(rules) {
		if !e.saturate(safe) {
			e.finish()
			return
		}
	}
	e.saturate(rules)
	e.finish()
}

// saturate drains the worklist under the given rules; it reseeds the queue
// with every live node so a fresh rule set gets a full pass. Returns false
// if the rewrite budget ran out.
func (e *engine) saturate(rules []Rule) bool {
	for i := range e.gates {
		e.enqueue(int32(i))
	}
	for e.qhead < len(e.queue) {
		i := e.pop()
		if !e.alive[i] || e.gates[i].IsPseudo() {
			continue
		}
		for r := range rules {
			if e.budget <= 0 {
				e.stats.BudgetExhausted = true
				return false
			}
			if rules[r].fire(e, i) {
				e.stats.Applied[rules[r].Name]++
				e.stats.Rewrites++
				e.budget--
				break // the rewrite re-enqueued whatever it touched
			}
		}
	}
	return true
}

func (e *engine) finish() {
	out := 0
	two := 0
	for i, g := range e.gates {
		if e.alive[i] {
			out++
			if g.IsTwoQubit() {
				two++
			}
		}
	}
	e.stats.GatesOut = out
	e.stats.TwoQubitOut = two
}

func (e *engine) pop() int32 {
	if e.rng != nil {
		// Fuzz mode: swap a random pending entry into the head slot.
		j := e.qhead + e.rng.Intn(len(e.queue)-e.qhead)
		e.queue[e.qhead], e.queue[j] = e.queue[j], e.queue[e.qhead]
	}
	i := e.queue[e.qhead]
	e.qhead++
	e.queued[i] = false
	// Compact the drained prefix occasionally so long runs don't hold the
	// whole history alive.
	if e.qhead > 1024 && e.qhead*2 > len(e.queue) {
		e.queue = append(e.queue[:0:0], e.queue[e.qhead:]...)
		e.qhead = 0
	}
	return i
}

func (e *engine) enqueue(i int32) {
	if i == none || !e.alive[i] || e.queued[i] {
		return
	}
	e.queued[i] = true
	e.queue = append(e.queue, i)
}

// touch re-enqueues node i and its current wire neighbors; every rule calls
// it (via remove/replace) for each node involved in a rewrite, which is what
// keeps saturation incremental instead of whole-circuit rescans.
func (e *engine) touch(i int32) {
	if i == none || !e.alive[i] {
		return
	}
	e.enqueue(i)
	for k := range e.gates[i].Qubits {
		e.enqueue(e.prev[i][k])
		e.enqueue(e.next[i][k])
	}
}

// remove unlinks node i from every wire and marks it dead, re-enqueueing
// the former neighbors (they may now be adjacent to a new partner).
func (e *engine) remove(i int32) {
	g := e.gates[i]
	neighbors := make([]int32, 0, 2*len(g.Qubits))
	for k, q := range g.Qubits {
		p, n := e.prev[i][k], e.next[i][k]
		if p != none {
			e.next[p][wireIdx(e.gates[p], q)] = n
			neighbors = append(neighbors, p)
		} else {
			e.head[q] = n
		}
		if n != none {
			e.prev[n][wireIdx(e.gates[n], q)] = p
			neighbors = append(neighbors, n)
		} else {
			e.tail[q] = p
		}
	}
	e.alive[i] = false
	for _, n := range neighbors {
		e.touch(n)
	}
}

// replace swaps node i's gate for g in place. g's qubit set must be a
// subset of the old gate's (rules never insert nodes); links on dropped
// wires are spliced out, links on kept wires are reused, so i keeps its
// position in the circuit order.
func (e *engine) replace(i int32, g circuit.Gate) {
	old := e.gates[i]
	keep := make(map[int]bool, len(g.Qubits))
	for _, q := range g.Qubits {
		keep[q] = true
	}
	prev := make([]int32, len(g.Qubits))
	next := make([]int32, len(g.Qubits))
	for k, q := range old.Qubits {
		if keep[q] {
			nk := wireIdx(g, q)
			prev[nk], next[nk] = e.prev[i][k], e.next[i][k]
			continue
		}
		// Splice node i out of the dropped wire.
		p, n := e.prev[i][k], e.next[i][k]
		if p != none {
			e.next[p][wireIdx(e.gates[p], q)] = n
			e.touch(p)
		} else {
			e.head[q] = n
		}
		if n != none {
			e.prev[n][wireIdx(e.gates[n], q)] = p
			e.touch(n)
		} else {
			e.tail[q] = p
		}
	}
	e.gates[i] = g
	e.prev[i], e.next[i] = prev, next
	e.touch(i)
}

// prevOn returns the neighbor before node i on qubit q's wire.
func (e *engine) prevOn(i int32, q int) int32 { return e.prev[i][wireIdx(e.gates[i], q)] }

// searchBack walks backward from node i across gates that commute with
// gates[i], looking for the first node where match returns true. The walk
// maintains one cursor per wire of g and always examines the latest
// not-yet-crossed gate on any wire, so a candidate is only tested after
// everything between it and g has been proven to commute with g — the
// standard soundness argument for commutation-enabled cancellation. Returns
// none if a non-commuting gate blocks the walk or the window limit runs out.
func (e *engine) searchBack(i int32, match func(p circuit.Gate) bool) int32 {
	g := e.gates[i]
	cur := make([]int32, len(g.Qubits))
	for k := range g.Qubits {
		cur[k] = e.prev[i][k]
	}
	for steps := 0; steps < e.windowLimit; steps++ {
		j := none
		for k := range cur {
			if cur[k] > j {
				j = cur[k]
			}
		}
		if j == none {
			return none
		}
		p := e.gates[j]
		if match(p) {
			return j
		}
		if !commutes(p, g) {
			return none
		}
		for k, q := range g.Qubits {
			if cur[k] == j {
				cur[k] = e.prev[j][wireIdx(p, q)]
			}
		}
	}
	return none
}

// emit rebuilds the circuit from the surviving nodes in original position
// order.
func (e *engine) emit() *circuit.Circuit {
	out := circuit.New(e.nq)
	for i, g := range e.gates {
		if e.alive[i] {
			out.Append(g)
		}
	}
	return out
}

// pairOK reports whether a rule may synthesize a two-qubit gate on (a, b).
func (e *engine) pairOK(a, b int) bool {
	return e.adjacentOK == nil || e.adjacentOK(a, b)
}

// --- shared gate predicates -------------------------------------------------

// zDiagonal reports whether the gate's matrix is diagonal in the Z basis,
// so it commutes with every other Z-diagonal gate.
func zDiagonal(n circuit.Name) bool {
	switch n {
	case circuit.I, circuit.Z, circuit.S, circuit.Sdg, circuit.T, circuit.Tdg,
		circuit.RZ, circuit.U1, circuit.CZ, circuit.CP, circuit.CCZ:
		return true
	}
	return false
}

// axis classification for the per-shared-qubit commutation test.
type axis int

const (
	axisNone axis = iota
	axisX
	axisZ
)

// axisAt returns the Pauli axis along which gate g acts on qubit q, if its
// action on q is diagonal in that axis: Z for phase-type action (controls,
// Z rotations), X for X-type action (CX targets, X rotations).
func axisAt(g circuit.Gate, q int) axis {
	switch g.Name {
	case circuit.I, circuit.Z, circuit.S, circuit.Sdg, circuit.T, circuit.Tdg,
		circuit.RZ, circuit.U1, circuit.CZ, circuit.CP, circuit.CCZ:
		return axisZ
	case circuit.X, circuit.SX, circuit.SXdg, circuit.RX:
		return axisX
	case circuit.CX, circuit.CCX, circuit.MCX:
		if g.Target() == q {
			return axisX
		}
		return axisZ
	}
	return axisNone
}

// commutes reports whether gates a and b commute as operators, using
// conservative structural rules: disjoint supports always commute;
// Z-diagonal gates commute with each other; on every shared qubit the two
// gates must act along the same Pauli axis. SWAP
// additionally commutes with same-footprint symmetric pair gates (CZ, CP,
// SWAP), which lets cancellation windows cross routing swaps.
func commutes(a, b circuit.Gate) bool {
	if a.IsPseudo() || b.IsPseudo() {
		return false
	}
	shared := false
	for _, q := range a.Qubits {
		for _, p := range b.Qubits {
			if q == p {
				shared = true
			}
		}
	}
	if !shared {
		return true
	}
	if zDiagonal(a.Name) && zDiagonal(b.Name) {
		return true
	}
	if a.Name == circuit.SWAP || b.Name == circuit.SWAP {
		s, o := a, b
		if b.Name == circuit.SWAP {
			s, o = b, a
		}
		switch o.Name {
		case circuit.SWAP, circuit.CZ, circuit.CP:
			return sameFootprint(s, o)
		}
		return false
	}
	for _, q := range a.Qubits {
		if !touches(b, q) {
			continue
		}
		ax, bx := axisAt(a, q), axisAt(b, q)
		if ax == axisNone || ax != bx {
			return false
		}
	}
	return true
}

func touches(g circuit.Gate, q int) bool {
	for _, x := range g.Qubits {
		if x == q {
			return true
		}
	}
	return false
}

// sameFootprint reports whether two gates act on the same qubit set.
func sameFootprint(a, b circuit.Gate) bool {
	if len(a.Qubits) != len(b.Qubits) {
		return false
	}
	for _, q := range a.Qubits {
		if !touches(b, q) {
			return false
		}
	}
	return true
}

// normAngle wraps a rotation angle into (-π, π], snapping values within
// 1e-12 of zero (after wrapping, so 2πk collapses too).
func normAngle(theta float64) float64 {
	r := math.Remainder(theta, 2*math.Pi)
	if math.Abs(r) < 1e-12 {
		return 0
	}
	return r
}

// angleIs reports whether theta is within float wobble of target.
func angleIs(theta, target float64) bool {
	return math.Abs(theta-target) < 1e-12
}
