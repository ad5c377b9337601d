package rewrite

import (
	"math"

	"trios/internal/circuit"
)

// Rule is one entry of the declarative rewrite table. A rule is anchored at
// a single node: fire inspects the node's wire neighborhood and either
// applies the rewrite (returning true) or leaves the circuit untouched.
// Every rule strictly reduces gate count or merges two gates into one, so
// saturation terminates; Exact records whether the rewrite preserves the
// unitary exactly or only up to global phase (the class the equivalence
// checker verifies, since fidelity is phase-blind).
type Rule struct {
	Name  string
	Doc   string
	Exact bool
	// Structural marks rules that re-express gates instead of deleting
	// them; the engine saturates the non-structural rules to a fixpoint
	// before enabling these, so a conversion never consumes a gate that a
	// cancellation or merge was about to remove.
	Structural bool
	fire       func(e *engine, i int32) bool
}

// rules is the rule table in priority order (the first matching rule at a
// node wins). Order matters only for which normal form is reached first —
// cancellations are tried before structural conversions so conversions
// never consume gates a cheaper rule could delete.
var rules = []Rule{
	{
		Name:  "drop-identity",
		Doc:   "delete id gates and rotations whose angle is 0 mod 2π (RZ/RX/RY up to global phase, U1/CP exactly)",
		Exact: false,
		fire:  fireDropIdentity,
	},
	{
		Name:  "cancel-inverse",
		Doc:   "delete a gate and its inverse when everything between them commutes with the gate",
		Exact: true,
		fire:  fireCancelInverse,
	},
	{
		Name:  "merge-phase",
		Doc:   "merge Z-axis phase gates (z/s/sdg/t/tdg/u1/rz) on one qubit across a commuting window, 2π-normalized",
		Exact: false,
		fire:  fireMergePhase,
	},
	{
		Name:  "merge-x",
		Doc:   "merge X-axis gates (x/sx/sxdg/rx) on one qubit across a commuting window, 2π-normalized",
		Exact: false,
		fire:  fireMergeX,
	},
	{
		Name:  "merge-y",
		Doc:   "merge Y-axis gates (y/ry) on one qubit across a commuting window, 2π-normalized",
		Exact: false,
		fire:  fireMergeY,
	},
	{
		Name:  "merge-cphase",
		Doc:   "merge same-pair controlled-phase gates (cp/cz) across a commuting window; cp(π) canonicalizes to cz",
		Exact: true,
		fire:  fireMergeCPhase,
	},
	{
		Name:  "canon-cp-cz",
		Doc:   "rewrite cp(±π) as cz, which lowers to 1 CX instead of 2",
		Exact: true,
		fire:  fireCanonCP,
	},
	{
		Name:       "absorb-swap-cx",
		Doc:        "fuse an adjacent same-pair swap+cx pair into two cx (swap·cx = cx·cx'), shedding a routing swap",
		Exact:      true,
		Structural: true,
		fire:       fireAbsorbSwapCX,
	},
	{
		Name:  "absorb-cx-sandwich",
		Doc:   "collapse cx·A·cx sandwiches with a non-commuting 1q middle: x/y on control, z/y on target — deletes both cx",
		Exact: true,
		fire:  fireAbsorbCXSandwich,
	},
	{
		Name:  "absorb-ccx-control-x",
		Doc:   "collapse ccx·x(control)·ccx to x(control)·cx(other, target), deleting both Toffolis",
		Exact: true,
		fire:  fireAbsorbCCXControlX,
	},
	{
		Name:  "sandwich-basis-change",
		Doc:   "rewrite h·A·h on one wire by conjugating the middle: x↔z, rx↔rz, sx→s, y→y, u1→rx",
		Exact: false,
		fire:  fireSandwichBasisChange,
	},
	{
		Name:  "conj-hh-cx-cz",
		Doc:   "rewrite h(t)·cx·h(t) as cz and h(q)·cz·h(q) as cx, consuming both Hadamards",
		Exact: true,
		fire:  fireConjHHCXCZ,
	},
}

// --- drop-identity ----------------------------------------------------------

func fireDropIdentity(e *engine, i int32) bool {
	g := e.gates[i]
	switch g.Name {
	case circuit.I:
		e.remove(i)
		return true
	case circuit.RX, circuit.RY, circuit.RZ, circuit.U1, circuit.CP:
		if normAngle(g.Params[0]) == 0 {
			e.remove(i)
			return true
		}
	}
	return false
}

// --- cancel-inverse ---------------------------------------------------------

// symmetricName reports gates invariant under operand permutation.
func symmetricName(n circuit.Name) bool {
	switch n {
	case circuit.CZ, circuit.CP, circuit.SWAP, circuit.CCZ:
		return true
	}
	return false
}

// cancelsPair reports whether applying a then b is the identity, by
// structural rules that cover every named gate including MCX.
func cancelsPair(a, b circuit.Gate) bool {
	if a.IsPseudo() || b.IsPseudo() {
		return false
	}
	if a.IsInverse(b) {
		return true
	}
	if symmetricName(a.Name) && a.Name == b.Name && sameFootprint(a, b) {
		if a.Name == circuit.CP {
			return a.Params[0] == -b.Params[0]
		}
		return true
	}
	// Controls of CCX/MCX are interchangeable: cancel on matching target
	// and control set regardless of listed order.
	if a.Name == b.Name && (a.Name == circuit.CCX || a.Name == circuit.MCX) &&
		a.Target() == b.Target() && sameFootprint(a, b) {
		return true
	}
	return false
}

func fireCancelInverse(e *engine, i int32) bool {
	g := e.gates[i]
	j := e.searchBack(i, func(p circuit.Gate) bool { return cancelsPair(p, g) })
	if j == none {
		return false
	}
	e.remove(j)
	e.remove(i)
	return true
}

// --- axis-family rotation merging -------------------------------------------

// phaseAngle classifies Z-axis single-qubit phase gates. named is true for
// the Clifford+T mnemonics whose products snap back to mnemonics exactly.
func phaseAngle(g circuit.Gate) (theta float64, named bool, ok bool) {
	switch g.Name {
	case circuit.Z:
		return math.Pi, true, true
	case circuit.S:
		return math.Pi / 2, true, true
	case circuit.Sdg:
		return -math.Pi / 2, true, true
	case circuit.T:
		return math.Pi / 4, true, true
	case circuit.Tdg:
		return -math.Pi / 4, true, true
	case circuit.U1, circuit.RZ:
		return g.Params[0], false, true
	}
	return 0, false, false
}

// emitPhase renders a merged Z-axis angle back to a gate. When either
// participant carried a continuous parameter the parameterized name is
// kept (u1 wins over rz so lowered circuits stay in the {u1,u2,u3,cx}
// basis); otherwise the angle is a multiple of π/4 and snaps to a
// mnemonic when one exists.
func emitPhase(q int, theta float64, anyU1, anyRZ bool) (circuit.Gate, bool) {
	theta = normAngle(theta)
	if theta == 0 {
		return circuit.Gate{}, false
	}
	qs := []int{q}
	if anyU1 {
		return circuit.NewGate(circuit.U1, qs, theta), true
	}
	if anyRZ {
		return circuit.NewGate(circuit.RZ, qs, theta), true
	}
	switch {
	case angleIs(theta, math.Pi) || angleIs(theta, -math.Pi):
		return circuit.NewGate(circuit.Z, qs), true
	case angleIs(theta, math.Pi/2):
		return circuit.NewGate(circuit.S, qs), true
	case angleIs(theta, -math.Pi/2):
		return circuit.NewGate(circuit.Sdg, qs), true
	case angleIs(theta, math.Pi/4):
		return circuit.NewGate(circuit.T, qs), true
	case angleIs(theta, -math.Pi/4):
		return circuit.NewGate(circuit.Tdg, qs), true
	}
	return circuit.NewGate(circuit.U1, qs, theta), true
}

func fireMergePhase(e *engine, i int32) bool {
	g := e.gates[i]
	gt, _, ok := phaseAngle(g)
	if !ok || len(g.Qubits) != 1 {
		return false
	}
	q := g.Qubits[0]
	j := e.searchBack(i, func(p circuit.Gate) bool {
		if len(p.Qubits) != 1 || p.Qubits[0] != q {
			return false
		}
		_, _, pok := phaseAngle(p)
		return pok
	})
	if j == none {
		return false
	}
	p := e.gates[j]
	pt, _, _ := phaseAngle(p)
	anyU1 := g.Name == circuit.U1 || p.Name == circuit.U1
	anyRZ := g.Name == circuit.RZ || p.Name == circuit.RZ
	merged, keep := emitPhase(q, addAngles(pt, gt), anyU1, anyRZ)
	e.remove(i)
	if keep {
		e.replace(j, merged)
	} else {
		e.remove(j)
	}
	return true
}

// xAngle classifies X-axis single-qubit gates.
func xAngle(g circuit.Gate) (theta float64, ok bool) {
	switch g.Name {
	case circuit.X:
		return math.Pi, true
	case circuit.SX:
		return math.Pi / 2, true
	case circuit.SXdg:
		return -math.Pi / 2, true
	case circuit.RX:
		return g.Params[0], true
	}
	return 0, false
}

func emitX(q int, theta float64, anyRX bool) (circuit.Gate, bool) {
	theta = normAngle(theta)
	if theta == 0 {
		return circuit.Gate{}, false
	}
	qs := []int{q}
	if !anyRX {
		switch {
		case angleIs(theta, math.Pi) || angleIs(theta, -math.Pi):
			return circuit.NewGate(circuit.X, qs), true
		case angleIs(theta, math.Pi/2):
			return circuit.NewGate(circuit.SX, qs), true
		case angleIs(theta, -math.Pi/2):
			return circuit.NewGate(circuit.SXdg, qs), true
		}
	}
	return circuit.NewGate(circuit.RX, qs, theta), true
}

func fireMergeX(e *engine, i int32) bool {
	g := e.gates[i]
	gt, ok := xAngle(g)
	if !ok {
		return false
	}
	q := g.Qubits[0]
	j := e.searchBack(i, func(p circuit.Gate) bool {
		if len(p.Qubits) != 1 || p.Qubits[0] != q {
			return false
		}
		_, pok := xAngle(p)
		return pok
	})
	if j == none {
		return false
	}
	p := e.gates[j]
	pt, _ := xAngle(p)
	anyRX := g.Name == circuit.RX || p.Name == circuit.RX
	merged, keep := emitX(q, addAngles(pt, gt), anyRX)
	e.remove(i)
	if keep {
		e.replace(j, merged)
	} else {
		e.remove(j)
	}
	return true
}

// yAngle classifies Y-axis single-qubit gates.
func yAngle(g circuit.Gate) (theta float64, ok bool) {
	switch g.Name {
	case circuit.Y:
		return math.Pi, true
	case circuit.RY:
		return g.Params[0], true
	}
	return 0, false
}

func fireMergeY(e *engine, i int32) bool {
	g := e.gates[i]
	gt, ok := yAngle(g)
	if !ok {
		return false
	}
	q := g.Qubits[0]
	j := e.searchBack(i, func(p circuit.Gate) bool {
		if len(p.Qubits) != 1 || p.Qubits[0] != q {
			return false
		}
		_, pok := yAngle(p)
		return pok
	})
	if j == none {
		return false
	}
	p := e.gates[j]
	pt, _ := yAngle(p)
	anyRY := g.Name == circuit.RY || p.Name == circuit.RY
	theta := normAngle(addAngles(pt, gt))
	e.remove(i)
	switch {
	case theta == 0:
		e.remove(j)
	case !anyRY && (angleIs(theta, math.Pi) || angleIs(theta, -math.Pi)):
		e.replace(j, circuit.NewGate(circuit.Y, []int{q}))
	default:
		e.replace(j, circuit.NewGate(circuit.RY, []int{q}, theta))
	}
	return true
}

// cpAngle classifies controlled-phase gates (cz is cp(π) exactly).
func cpAngle(g circuit.Gate) (theta float64, ok bool) {
	switch g.Name {
	case circuit.CZ:
		return math.Pi, true
	case circuit.CP:
		return g.Params[0], true
	}
	return 0, false
}

func emitCPhase(a, b int, theta float64) (circuit.Gate, bool) {
	theta = normAngle(theta)
	if theta == 0 {
		return circuit.Gate{}, false
	}
	if angleIs(theta, math.Pi) || angleIs(theta, -math.Pi) {
		return circuit.NewGate(circuit.CZ, []int{a, b}), true
	}
	return circuit.NewGate(circuit.CP, []int{a, b}, theta), true
}

func fireMergeCPhase(e *engine, i int32) bool {
	g := e.gates[i]
	gt, ok := cpAngle(g)
	if !ok {
		return false
	}
	j := e.searchBack(i, func(p circuit.Gate) bool {
		if _, pok := cpAngle(p); !pok {
			return false
		}
		return sameFootprint(p, g)
	})
	if j == none {
		return false
	}
	p := e.gates[j]
	pt, _ := cpAngle(p)
	merged, keep := emitCPhase(p.Qubits[0], p.Qubits[1], addAngles(pt, gt))
	e.remove(i)
	if keep {
		e.replace(j, merged)
	} else {
		e.remove(j)
	}
	return true
}

func fireCanonCP(e *engine, i int32) bool {
	g := e.gates[i]
	if g.Name != circuit.CP {
		return false
	}
	t := normAngle(g.Params[0])
	if angleIs(t, math.Pi) || angleIs(t, -math.Pi) {
		e.replace(i, circuit.NewGate(circuit.CZ, []int{g.Qubits[0], g.Qubits[1]}))
		return true
	}
	return false
}

// --- structural absorptions -------------------------------------------------

// fireAbsorbSwapCX fuses swap(a,b)·cx / cx·swap(a,b) pairs adjacent on both
// wires: swap = cx(a,b)·cx(b,a)·cx(a,b), so one of the three CX annihilates
// against the neighbor and two CX remain. In stats terms a SWAP lowers to 3
// CX, so each application sheds 2 physical CX.
func fireAbsorbSwapCX(e *engine, i int32) bool {
	g := e.gates[i]
	if g.Name != circuit.CX && g.Name != circuit.SWAP {
		return false
	}
	p0 := e.prevOn(i, g.Qubits[0])
	if p0 == none || p0 != e.prevOn(i, g.Qubits[1]) {
		return false
	}
	p := e.gates[p0]
	switch {
	case g.Name == circuit.CX && p.Name == circuit.SWAP && sameFootprint(p, g):
		// [swap, cx(x,y)] = [cx(x,y), cx(y,x)]
		x, y := g.Qubits[0], g.Qubits[1]
		e.replace(p0, circuit.NewGate(circuit.CX, []int{x, y}))
		e.replace(i, circuit.NewGate(circuit.CX, []int{y, x}))
		return true
	case g.Name == circuit.SWAP && p.Name == circuit.CX && sameFootprint(p, g):
		// [cx(x,y), swap] = [cx(y,x), cx(x,y)]
		x, y := p.Qubits[0], p.Qubits[1]
		e.replace(p0, circuit.NewGate(circuit.CX, []int{y, x}))
		e.replace(i, circuit.NewGate(circuit.CX, []int{x, y}))
		return true
	}
	return false
}

// fireAbsorbCXSandwich collapses cx·A·cx with both cx identical and a
// single-qubit middle that does not commute through:
//
//	cx · x(c) · cx = x(c) · x(t)      cx · y(c) · cx = y(c) · x(t)
//	cx · z(t) · cx = z(c) · z(t)      cx · y(t) · cx = z(c) · y(t)
//
// (Middles that do commute — x on target, z on control — are already
// handled by cancel-inverse crossing them.) The middle stays in place and
// the two cx become one single-qubit gate.
func fireAbsorbCXSandwich(e *engine, i int32) bool {
	g := e.gates[i]
	if g.Name != circuit.CX {
		return false
	}
	c, t := g.Qubits[0], g.Qubits[1]

	// Middle on the control wire: x/y(c).
	if pc := e.prevOn(i, c); pc != none {
		a := e.gates[pc]
		if (a.Name == circuit.X || a.Name == circuit.Y) && len(a.Qubits) == 1 {
			pp := e.prevOn(pc, c)
			if pp != none && pp == e.prevOn(i, t) && e.gates[pp].Equal(g) {
				e.remove(pp)
				e.replace(i, circuit.NewGate(circuit.X, []int{t}))
				return true
			}
		}
	}
	// Middle on the target wire: z/y(t).
	if pt := e.prevOn(i, t); pt != none {
		a := e.gates[pt]
		if (a.Name == circuit.Z || a.Name == circuit.Y) && len(a.Qubits) == 1 {
			pp := e.prevOn(pt, t)
			if pp != none && pp == e.prevOn(i, c) && e.gates[pp].Equal(g) {
				e.remove(pp)
				e.replace(i, circuit.NewGate(circuit.Z, []int{c}))
				return true
			}
		}
	}
	return false
}

// fireAbsorbCCXControlX collapses ccx·x(ci)·ccx (same control set and
// target, x on one control, the Toffolis adjacent on the other two wires):
// the pair computes t ^= c1·c2 before and after ci flips, which nets to
// t ^= cother — so both Toffolis die and a single cx remains. The new
// cx(cother, t) pair must pass the adjacency predicate when one is set.
func fireAbsorbCCXControlX(e *engine, i int32) bool {
	g := e.gates[i]
	if g.Name != circuit.CCX {
		return false
	}
	t := g.Target()
	for _, ci := range g.Controls() {
		pc := e.prevOn(i, ci)
		if pc == none {
			continue
		}
		a := e.gates[pc]
		if a.Name != circuit.X || len(a.Qubits) != 1 {
			continue
		}
		pp := e.prevOn(pc, ci)
		if pp == none || !e.alive[pp] {
			continue
		}
		p := e.gates[pp]
		if p.Name != circuit.CCX || p.Target() != t || !sameFootprint(p, g) {
			continue
		}
		// The Toffolis must be adjacent on the two wires the x does not
		// touch.
		other := g.Controls()[0]
		if other == ci {
			other = g.Controls()[1]
		}
		if e.prevOn(i, other) != pp || e.prevOn(i, t) != pp {
			continue
		}
		if !e.pairOK(other, t) {
			continue
		}
		e.remove(pp)
		e.replace(i, circuit.NewGate(circuit.CX, []int{other, t}))
		return true
	}
	return false
}

// --- Hadamard conjugations --------------------------------------------------

// sandwichConvert maps the middle gate A of h·A·h to its conjugate H·A·H,
// up to global phase for y (−1), sx/sxdg (±i-type), and u1 (e^{iθ/2}).
func sandwichConvert(a circuit.Gate) (circuit.Gate, bool) {
	q := a.Qubits
	switch a.Name {
	case circuit.X:
		return circuit.NewGate(circuit.Z, q), true
	case circuit.Z:
		return circuit.NewGate(circuit.X, q), true
	case circuit.Y:
		return circuit.NewGate(circuit.Y, q), true // H·Y·H = −Y
	case circuit.RX:
		return circuit.NewGate(circuit.RZ, q, a.Params[0]), true
	case circuit.RZ:
		return circuit.NewGate(circuit.RX, q, a.Params[0]), true
	case circuit.U1:
		return circuit.NewGate(circuit.RX, q, a.Params[0]), true
	case circuit.SX:
		return circuit.NewGate(circuit.S, q), true
	case circuit.SXdg:
		return circuit.NewGate(circuit.Sdg, q), true
	}
	return circuit.Gate{}, false
}

func fireSandwichBasisChange(e *engine, i int32) bool {
	g := e.gates[i]
	if g.Name != circuit.H {
		return false
	}
	q := g.Qubits[0]
	pa := e.prevOn(i, q)
	if pa == none {
		return false
	}
	a := e.gates[pa]
	if len(a.Qubits) != 1 {
		return false
	}
	conv, ok := sandwichConvert(a)
	if !ok {
		return false
	}
	ph := e.prevOn(pa, q)
	if ph == none || e.gates[ph].Name != circuit.H {
		return false
	}
	e.remove(ph)
	e.remove(i)
	e.replace(pa, conv)
	return true
}

// fireConjHHCXCZ rewrites h(t)·cx(c,t)·h(t) → cz(c,t) and
// h(q)·cz(a,b)·h(q) → cx(other,q), consuming both Hadamards. The control
// wire may hold anything; only wire t adjacency matters since h acts on t
// alone.
func fireConjHHCXCZ(e *engine, i int32) bool {
	g := e.gates[i]
	if g.Name != circuit.H {
		return false
	}
	q := g.Qubits[0]
	pm := e.prevOn(i, q)
	if pm == none {
		return false
	}
	m := e.gates[pm]
	var repl circuit.Gate
	switch {
	case m.Name == circuit.CX && m.Qubits[1] == q:
		repl = circuit.NewGate(circuit.CZ, []int{m.Qubits[0], q})
	case m.Name == circuit.CZ:
		other := m.Qubits[0]
		if other == q {
			other = m.Qubits[1]
		}
		repl = circuit.NewGate(circuit.CX, []int{other, q})
	default:
		return false
	}
	ph := e.prevOn(pm, q)
	if ph == none || e.gates[ph].Name != circuit.H {
		return false
	}
	e.remove(ph)
	e.remove(i)
	e.replace(pm, repl)
	return true
}
