// Package circuit defines the intermediate representation used by the Trios
// compiler: quantum gates, circuits, and their moments (the ASAP
// schedule behind Depth and Draw).
//
// A Circuit is an ordered list of Gates applied to qubits identified by
// small integer indices. The representation is deliberately close to
// OpenQASM 2.0: it supports the IBM basis {u1, u2, u3, cx}, the common named
// single-qubit gates, SWAP, the three-qubit Toffoli (CCX and CCZ), and a
// generalized multi-controlled X (MCX) used by benchmark generators before
// the first decomposition pass.
package circuit

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Name identifies a gate kind.
type Name int

// Gate kinds. The order groups gates by arity: single-qubit gates first,
// then two-qubit, then three-qubit, then variable-arity and pseudo-ops.
const (
	// Single-qubit gates.
	I Name = iota
	X
	Y
	Z
	H
	S
	Sdg
	T
	Tdg
	SX // sqrt(X)
	SXdg
	RX // rotation, one parameter
	RY
	RZ
	U1 // diag(1, e^{i lambda})
	U2 // two parameters (phi, lambda)
	U3 // three parameters (theta, phi, lambda)

	// Two-qubit gates.
	CX
	CZ
	CP // controlled phase, one parameter
	SWAP

	// Three-qubit gates.
	CCX // Toffoli
	CCZ
	// RCCX is the Margolus gate: a Toffoli up to relative phase, 3 CNOTs
	// instead of 6-8. Correct wherever the phase cancels, e.g. the
	// compute/uncompute pairs of ancilla ladders. RCCXdg is its inverse.
	RCCX
	RCCXdg

	// Variable-arity gates.
	MCX // multi-controlled X: qubits = controls..., target last

	// Pseudo-operations.
	Measure
	Barrier

	numNames
)

var gateNames = [numNames]string{
	I: "id", X: "x", Y: "y", Z: "z", H: "h",
	S: "s", Sdg: "sdg", T: "t", Tdg: "tdg",
	SX: "sx", SXdg: "sxdg",
	RX: "rx", RY: "ry", RZ: "rz",
	U1: "u1", U2: "u2", U3: "u3",
	CX: "cx", CZ: "cz", CP: "cp", SWAP: "swap",
	CCX: "ccx", CCZ: "ccz", RCCX: "rccx", RCCXdg: "rccxdg",
	MCX:     "mcx",
	Measure: "measure", Barrier: "barrier",
}

// Valid reports whether n is one of the gate kinds above, and so has a
// mnemonic.
func (n Name) Valid() bool { return n >= 0 && n < numNames }

// String returns the lowercase OpenQASM-style mnemonic for the gate name.
func (n Name) String() string {
	if !n.Valid() {
		return fmt.Sprintf("gate(%d)", int(n))
	}
	return gateNames[n]
}

// nameParams[n] is the number of float parameters gate n carries.
var nameParams = [numNames]int{
	RX: 1, RY: 1, RZ: 1, U1: 1, CP: 1, U2: 2, U3: 3,
}

// ParamCount returns the number of rotation parameters gates of this kind take.
func (n Name) ParamCount() int {
	if n < 0 || n >= numNames {
		return 0
	}
	return nameParams[n]
}

// nameArity[n] is the fixed qubit arity of gate n, or -1 for variable arity.
var nameArity = [numNames]int{
	I: 1, X: 1, Y: 1, Z: 1, H: 1, S: 1, Sdg: 1, T: 1, Tdg: 1,
	SX: 1, SXdg: 1, RX: 1, RY: 1, RZ: 1, U1: 1, U2: 1, U3: 1,
	CX: 2, CZ: 2, CP: 2, SWAP: 2,
	CCX: 3, CCZ: 3, RCCX: 3, RCCXdg: 3,
	MCX:     -1,
	Measure: 1, Barrier: -1,
}

// Arity returns the number of qubits gates of this kind act on,
// or -1 if the arity is variable (MCX, Barrier).
func (n Name) Arity() int {
	if n < 0 || n >= numNames {
		return 0
	}
	return nameArity[n]
}

// ParseName converts an OpenQASM-style mnemonic to a Name.
func ParseName(s string) (Name, bool) {
	if len(s) == 0 || int(s[0]) >= len(namesByFirst) {
		return 0, false
	}
	for _, n := range namesByFirst[s[0]] {
		if gateNames[n] == s {
			return n, true
		}
	}
	return 0, false
}

// namesByFirst groups the gate kinds by the first letter of their
// mnemonic, so ParseName compares s with at most five mnemonics.
var namesByFirst = func() (t [128][]Name) {
	for n, g := range gateNames {
		t[g[0]] = append(t[g[0]], Name(n))
	}
	return t
}()

// Gate is a single operation on one or more qubits.
//
// Qubits are logical indices before mapping and physical hardware indices
// after. For controlled gates the controls come first and the target last.
//
// A gate's Qubits and Params are read-only once the gate is built: the
// circuit builders carve them from chunks the circuit shares among many
// gates, and copies of a gate share them. To change a gate's operands,
// build a new gate (On, Remap) or copy the circuit (Copy is deep).
type Gate struct {
	Name   Name
	Qubits []int
	Params []float64
}

// NewGate builds a gate after validating arity and parameter count.
// It panics on mismatch; gate construction errors are programming errors.
func NewGate(name Name, qubits []int, params ...float64) Gate {
	if a := name.Arity(); a >= 0 && len(qubits) != a {
		panic(fmt.Sprintf("circuit: gate %v expects %d qubits, got %d", name, a, len(qubits)))
	}
	if name == MCX && len(qubits) < 2 {
		panic(fmt.Sprintf("circuit: mcx needs at least 2 qubits, got %d", len(qubits)))
	}
	if p := name.ParamCount(); len(params) != p {
		panic(fmt.Sprintf("circuit: gate %v expects %d params, got %d", name, p, len(params)))
	}
	// Report the first operand that is negative or repeats an earlier one.
	neg := len(qubits)
	for i, q := range qubits {
		if q < 0 {
			neg = i
			break
		}
	}
	if i := FirstRepeat(qubits[:neg]); i >= 0 {
		panic(fmt.Sprintf("circuit: gate %v has duplicate qubit %d", name, qubits[i]))
	}
	if neg < len(qubits) {
		panic(fmt.Sprintf("circuit: gate %v has negative qubit %d", name, qubits[neg]))
	}
	return Gate{Name: name, Qubits: qubits, Params: params}
}

// smallOperands is the longest operand list FirstRepeat checks pairwise.
// Gates of the basis have at most three operands; only an mcx or a barrier
// is longer, and a hostile mcx line can carry thousands.
const smallOperands = 8

// FirstRepeat returns the index of the first operand of qs equal to an
// earlier one, or -1 when all are distinct. Short lists are scanned
// pairwise without allocating; longer ones are checked by sorting operand
// positions, so the check stays O(n log n).
func FirstRepeat(qs []int) int {
	if len(qs) <= smallOperands {
		for i := 1; i < len(qs); i++ {
			if slices.Contains(qs[:i], qs[i]) {
				return i
			}
		}
		return -1
	}
	pos := make([]int, len(qs))
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(a, b int) int {
		return cmp.Or(cmp.Compare(qs[a], qs[b]), cmp.Compare(a, b))
	})
	// Equal operands are now adjacent, in position order: every position
	// but the first of each run repeats an earlier one.
	first := -1
	for k := 1; k < len(pos); k++ {
		if qs[pos[k]] == qs[pos[k-1]] && (first < 0 || pos[k] < first) {
			first = pos[k]
		}
	}
	return first
}

// IsTwoQubit reports whether the gate is a two-qubit entangling operation.
// SWAP counts as two-qubit; it later decomposes into 3 CX.
func (g Gate) IsTwoQubit() bool {
	switch g.Name {
	case CX, CZ, CP, SWAP:
		return true
	}
	return false
}

// IsPseudo reports whether the gate is a non-unitary pseudo-op
// (measurement or barrier).
func (g Gate) IsPseudo() bool { return g.Name == Measure || g.Name == Barrier }

// Target returns the last qubit, which for controlled gates is the target.
func (g Gate) Target() int { return g.Qubits[len(g.Qubits)-1] }

// Controls returns the control qubits of a controlled gate (all but the last).
func (g Gate) Controls() []int { return g.Qubits[:len(g.Qubits)-1] }

// Inverse returns the adjoint of the gate. Pseudo-ops are returned unchanged.
func (g Gate) Inverse() Gate {
	switch g.Name {
	case RX, RY, RZ, U1, CP:
		return NewGate(g.Name, g.Qubits, -g.Params[0])
	case U2:
		// u2(phi, lambda)^-1 = u3(-pi/2, -lambda, -phi)
		return NewGate(U3, g.Qubits, -math.Pi/2, -g.Params[1], -g.Params[0])
	case U3:
		return NewGate(U3, g.Qubits, -g.Params[0], -g.Params[2], -g.Params[1])
	}
	if n := dagger(g.Name); n != g.Name {
		return NewGate(n, g.Qubits, g.Params...)
	}
	return g
}

// IsInverse reports whether o equals g.Inverse(), without building the
// inverse.
func (g Gate) IsInverse(o Gate) bool {
	if !slices.Equal(g.Qubits, o.Qubits) {
		return false
	}
	gp, op := g.Params, o.Params
	switch g.Name {
	case RX, RY, RZ, U1, CP:
		return o.Name == g.Name && len(op) == 1 && op[0] == -gp[0]
	case U2:
		return o.Name == U3 && len(op) == 3 && op[0] == -math.Pi/2 && op[1] == -gp[1] && op[2] == -gp[0]
	case U3:
		return o.Name == U3 && len(op) == 3 && op[0] == -gp[0] && op[1] == -gp[2] && op[2] == -gp[1]
	}
	return o.Name == dagger(g.Name) && slices.Equal(gp, op)
}

// dagger names the inverse of a parameterless gate kind: the daggered twin
// of s, t, sx and rccx (and back), else the kind itself, which is
// self-inverse (I, X, Y, Z, H, CX, CZ, SWAP, CCX, CCZ, MCX) or a pseudo-op.
func dagger(n Name) Name {
	switch n {
	case S:
		return Sdg
	case Sdg:
		return S
	case T:
		return Tdg
	case Tdg:
		return T
	case SX:
		return SXdg
	case SXdg:
		return SX
	case RCCX:
		return RCCXdg
	case RCCXdg:
		return RCCX
	}
	return n
}

// Equal reports structural equality of two gates.
func (g Gate) Equal(o Gate) bool {
	if g.Name != o.Name || len(g.Qubits) != len(o.Qubits) || len(g.Params) != len(o.Params) {
		return false
	}
	for i := range g.Qubits {
		if g.Qubits[i] != o.Qubits[i] {
			return false
		}
	}
	for i := range g.Params {
		if g.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// String renders the gate in OpenQASM-like syntax, e.g. "cx q[0], q[1]".
func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(g.Name.String())
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	return b.String()
}
