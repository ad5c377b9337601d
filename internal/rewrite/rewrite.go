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
	"slices"
	"sync"

	"trios/internal/circuit"
)

// Options configures a Saturate run.
type Options struct {
	// MaxRewrites caps total rule applications; 0 means 64 + 16·gates.
	// When the budget is exhausted the engine stops early (Stats records
	// it) — the circuit is still valid, just not fully saturated.
	MaxRewrites int
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

// windowLimit caps how many gates a commuting-window search may cross on
// one wire walk.
const windowLimit = 128

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
	e := engines.Get().(*engine)
	e.load(c, opts)
	e.run()
	out, st := e.emit(), e.stats
	e.release()
	engines.Put(e)
	return out, st
}

// engines hands each Saturate call the buffers of an earlier one (a
// compile makes up to six calls), so a call allocates its links, flags
// and queue only when it outgrows every earlier one. A pooled engine holds
// no gate, so the pool pins no circuit.
var engines = sync.Pool{New: func() any { return new(engine) }}

const none = int32(-1)

// engine holds the mutable rewrite state: gates indexed by node id (node
// ids are original circuit positions; replacements keep their id so
// ascending id order is always a valid emission order), per-operand wire
// links, and the worklist.
type engine struct {
	nq    int
	gates []circuit.Gate
	alive []bool
	// Node i's wire links start at slot off[i] of prev and next, one per
	// operand of its input gate: prev[off[i]+k] / next[off[i]+k] link it
	// to its neighbors on the wire of its k-th operand qubit (none at the
	// ends). A replacement only drops qubits, so it fits its node's slot.
	off        []int32
	prev, next []int32
	// head[q] / tail[q] are the first/last alive node on qubit q's wire.
	head, tail []int32

	queue  []int32
	qhead  int
	queued []bool
	rng    *rand.Rand

	budget     int
	adjacentOK func(a, b int) bool
	applied    []int // rule applications, by index in rules
	stats      Stats
}

// resize returns s at length n, reusing its array when it is long enough.
// The elements are stale: callers overwrite or clear them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load sets the engine up for one run over c, reusing its buffers.
func (e *engine) load(c *circuit.Circuit, opts Options) {
	n := len(c.Gates)
	links := 0
	for _, g := range c.Gates {
		links += len(g.Qubits)
	}
	e.nq = c.NumQubits
	e.gates = append(e.gates[:0], c.Gates...)
	e.alive = resize(e.alive, n)
	e.queued = resize(e.queued, n)
	clear(e.queued)
	e.off = resize(e.off, n)
	e.prev = resize(e.prev, links)
	e.next = resize(e.next, links)
	e.head = resize(e.head, c.NumQubits)
	e.tail = resize(e.tail, c.NumQubits)
	e.queue, e.qhead = e.queue[:0], 0
	e.applied = resize(e.applied, len(rules))
	clear(e.applied)
	e.budget = opts.MaxRewrites
	if e.budget == 0 {
		e.budget = 64 + 16*n
	}
	e.adjacentOK = opts.AdjacentOK
	if opts.PopSeed != 0 {
		e.rng = rand.New(rand.NewSource(opts.PopSeed))
	}
	e.stats = Stats{GatesIn: n, TwoQubitIn: twoQubitCount(c.Gates)}

	for q := range e.head {
		e.head[q], e.tail[q] = none, none
	}
	slot := int32(0)
	for i, g := range e.gates {
		e.alive[i] = true
		e.off[i] = slot
		for k, q := range g.Qubits {
			e.prev[slot+int32(k)] = e.tail[q]
			e.next[slot+int32(k)] = none
			if t := e.tail[q]; t != none {
				e.next[e.slot(t, q)] = int32(i)
			} else {
				e.head[q] = int32(i)
			}
			e.tail[q] = int32(i)
		}
		slot += int32(len(g.Qubits))
	}
}

// release drops the engine's references into this run's circuits (the
// gates share their operand slices) and its adjacency predicate, before
// the engine goes back to the pool.
func (e *engine) release() {
	clear(e.gates)
	e.gates = e.gates[:0]
	e.adjacentOK, e.rng = nil, nil
	e.stats = Stats{}
}

// links returns node i's wire links, indexed by operand like its gate's
// qubits.
func (e *engine) links(i int32) (prev, next []int32) {
	lo := e.off[i]
	hi := lo + int32(len(e.gates[i].Qubits))
	return e.prev[lo:hi], e.next[lo:hi]
}

// slot returns the index in prev and next of node i's link on qubit q's
// wire.
func (e *engine) slot(i int32, q int) int32 {
	return e.off[i] + int32(wireIdx(e.gates[i], q))
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

func (e *engine) run() {
	// Structural rules (SWAP absorption) re-express gates rather than
	// delete them, and their output can block cancellations another node
	// was about to make. Saturating the deletion/merge rules to a fixpoint
	// first guarantees the structural pass never consumes a gate a cheaper
	// rule wanted.
	if e.saturate(false) {
		e.saturate(true)
	}
	e.finish()
}

// saturate drains the worklist under the rule table, its structural rules
// included only when structural is set; it reseeds the queue with every
// live node so a fresh rule set gets a full pass. Returns false if the
// rewrite budget ran out.
func (e *engine) saturate(structural bool) bool {
	for i := range e.gates {
		e.enqueue(int32(i))
	}
	for e.qhead < len(e.queue) {
		i := e.pop()
		if !e.alive[i] || e.gates[i].IsPseudo() {
			continue
		}
		for r := range rules {
			if rules[r].Structural && !structural {
				continue
			}
			if e.budget <= 0 {
				e.stats.BudgetExhausted = true
				return false
			}
			if rules[r].fire(e, i) {
				e.applied[r]++
				e.stats.Rewrites++
				e.budget--
				break // the rewrite re-enqueued whatever it touched
			}
		}
	}
	return true
}

func (e *engine) finish() {
	e.stats.Applied = make(map[string]int)
	for r, n := range e.applied {
		if n > 0 {
			e.stats.Applied[rules[r].Name] = n
		}
	}
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
	// Drop the drained prefix occasionally, in place, so long runs don't
	// grow the queue with the whole history.
	if e.qhead > 1024 && e.qhead*2 > len(e.queue) {
		e.queue = e.queue[:copy(e.queue, e.queue[e.qhead:])]
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
	prev, next := e.links(i)
	for k := range prev {
		e.enqueue(prev[k])
		e.enqueue(next[k])
	}
}

// remove unlinks node i from every wire and marks it dead, re-enqueueing
// the former neighbors (they may now be adjacent to a new partner).
func (e *engine) remove(i int32) {
	g := e.gates[i]
	prev, next := e.links(i)
	var buf [8]int32
	neighbors := buf[:0]
	for k, q := range g.Qubits {
		p, n := prev[k], next[k]
		if p != none {
			e.next[e.slot(p, q)] = n
			neighbors = append(neighbors, p)
		} else {
			e.head[q] = n
		}
		if n != none {
			e.prev[e.slot(n, q)] = p
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
// subset of the old gate's (rules never insert nodes), so its links fit
// i's slot; it panics otherwise. Links on dropped wires are spliced out,
// links on kept wires are reused, so i keeps its position in the circuit
// order.
func (e *engine) replace(i int32, g circuit.Gate) {
	old := e.gates[i]
	prev, next := e.links(i)
	// g's links, staged apart because a kept wire can change operand
	// index: prev at k, next at n+k.
	n := len(g.Qubits)
	var buf [8]int32
	staged := buf[:]
	if 2*n > len(buf) {
		staged = make([]int32, 2*n)
	}
	kept := 0
	for k, q := range old.Qubits {
		if nk := slices.Index(g.Qubits, q); nk >= 0 {
			staged[nk], staged[n+nk] = prev[k], next[k]
			kept++
			continue
		}
		// Splice node i out of the dropped wire.
		p, nx := prev[k], next[k]
		if p != none {
			e.next[e.slot(p, q)] = nx
			e.touch(p)
		} else {
			e.head[q] = nx
		}
		if nx != none {
			e.prev[e.slot(nx, q)] = p
			e.touch(nx)
		} else {
			e.tail[q] = p
		}
	}
	if kept != n {
		panic("rewrite: replacement gate is not on a subset of its node's qubits")
	}
	copy(prev, staged[:n])
	copy(next, staged[n:2*n])
	e.gates[i] = g
	e.touch(i)
}

// prevOn returns the neighbor before node i on qubit q's wire.
func (e *engine) prevOn(i int32, q int) int32 { return e.prev[e.slot(i, q)] }

// searchBack walks backward from node i across gates that commute with
// gates[i], looking for the first node where match returns true. The walk
// maintains one cursor per wire of g and always examines the latest
// not-yet-crossed gate on any wire, so a candidate is only tested after
// everything between it and g has been proven to commute with g — the
// standard soundness argument for commutation-enabled cancellation. Returns
// none if a non-commuting gate blocks the walk or the window limit runs out.
func (e *engine) searchBack(i int32, match func(p circuit.Gate) bool) int32 {
	g := e.gates[i]
	prev, _ := e.links(i)
	var buf [4]int32
	cur := append(buf[:0], prev...)
	for steps := 0; steps < windowLimit; steps++ {
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
				cur[k] = e.prevOn(j, q)
			}
		}
	}
	return none
}

// emit rebuilds the circuit from the surviving nodes in original position
// order.
func (e *engine) emit() *circuit.Circuit {
	out := circuit.New(e.nq)
	out.Gates = make([]circuit.Gate, 0, e.stats.GatesOut)
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

// bigAngle is where angle arithmetic stops trusting floats. Below it, an
// angle wraps by the float 2π and two angles merge by their float sum, as
// every pinned output was computed. From it up, the float 2π's error times
// the multiple removed reaches radians, and a sum can overflow or drop the
// smaller operand, so angles are reduced exactly first.
const bigAngle = 1 << 20

// normAngle wraps a rotation angle into [-π, π], snapping values within
// 1e-12 of zero (after wrapping, so 2πk collapses too). From bigAngle up it
// wraps through math.Sin and math.Cos, which reduce their argument exactly.
func normAngle(theta float64) float64 {
	r := math.Remainder(theta, 2*math.Pi)
	if math.Abs(theta) >= bigAngle {
		r = math.Atan2(math.Sin(theta), math.Cos(theta))
	}
	if math.Abs(r) < 1e-12 {
		return 0
	}
	return r
}

// addAngles is the angle of two merged rotations, wrapped by the float 2π.
// The threshold is checked on the operands, not on their sum: two operands
// below bigAngle add and wrap exactly as every pinned output was computed,
// even when their sum reaches bigAngle; otherwise each operand is wrapped
// exactly first.
func addAngles(a, b float64) float64 {
	if math.Abs(a) >= bigAngle || math.Abs(b) >= bigAngle {
		a, b = normAngle(a), normAngle(b)
	}
	return math.Remainder(a+b, 2*math.Pi)
}

// angleIs reports whether theta is within float wobble of target.
func angleIs(theta, target float64) bool {
	return math.Abs(theta-target) < 1e-12
}
