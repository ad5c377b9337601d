// Package decompose implements the gate-lowering passes of the compiler:
// the first pass that unrolls programs to {1q, 2q, CCX} gates, the Toffoli
// decompositions (6-CNOT triangle form and 8-CNOT linear form), the
// mapping-aware second pass that picks a decomposition per physical trio,
// and the final lowering to the IBM basis {u1, u2, u3, cx}.
package decompose

import (
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/topo"
)

// ToffoliMode selects which Toffoli decomposition a pass should emit.
type ToffoliMode int

const (
	// Auto picks 6-CNOT when the physical trio forms a triangle and 8-CNOT
	// otherwise (the Trios default, §4).
	Auto ToffoliMode = iota
	// Six always emits the 6-CNOT decomposition (Fig. 3), which requires all
	// three qubit pairs connected; on linear trios later routing must patch
	// the missing pair.
	Six
	// Eight always emits the 8-CNOT linear decomposition (Fig. 4).
	Eight
)

func (m ToffoliMode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Six:
		return "6-cnot"
	case Eight:
		return "8-cnot"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Gates appended by Toffoli6, Toffoli8 and Margolus; the expansion passes
// size their output with them.
const (
	toffoli6Len = 15
	toffoli8Len = 17
	margolusLen = 7
)

// Toffoli6 appends the standard 6-CNOT Toffoli decomposition
// (Nielsen & Chuang) for CCX(c1, c2, t). It uses CNOTs between all three
// pairs: (c2,t), (c1,t), and (c1,c2).
func Toffoli6(out *circuit.Circuit, c1, c2, t int) {
	out.H(t)
	out.CX(c2, t)
	out.Tdg(t)
	out.CX(c1, t)
	out.T(t)
	out.CX(c2, t)
	out.Tdg(t)
	out.CX(c1, t)
	out.T(c2)
	out.T(t)
	out.H(t)
	out.CX(c1, c2)
	out.T(c1)
	out.Tdg(c2)
	out.CX(c1, c2)
}

// CCZ8 appends an 8-CNOT CCZ on the linearly-connected trio (a, m, b): every
// CNOT acts on pair (a,m) or (m,b), so m must be the physically middle
// qubit. Because CCZ is symmetric, any operand of the original Toffoli can
// be mapped to any position in the line.
//
// The construction is a phase-polynomial network: CCZ applies phase
// (-1)^{a·m·b}, which expands into T rotations on the seven parities
// {a, m, b, a^m, m^b, a^b, a^m^b}; the CNOT ladder below visits each parity
// on a wire exactly when its T/Tdg fires, then uncomputes.
func CCZ8(out *circuit.Circuit, a, m, b int) {
	out.T(a)
	out.T(m)
	out.T(b)
	out.CX(m, b) // b: m^b
	out.Tdg(b)
	out.CX(a, m) // m: a^m
	out.Tdg(m)
	out.CX(m, b) // b: a^b
	out.Tdg(b)
	out.CX(a, m) // m restored
	out.CX(m, b) // b: a^m^b
	out.T(b)
	out.CX(a, m) // m: a^m
	out.CX(m, b) // b restored
	out.CX(a, m) // m restored
}

// Toffoli8 appends the 8-CNOT linear-connectivity Toffoli (Fig. 4 / Schuch)
// for CCX with target t, where (a, m, b) is the physical line (middle m) and
// t must be one of a, m, b. The other two line positions act as controls.
func Toffoli8(out *circuit.Circuit, a, m, b, t int) {
	if t != a && t != m && t != b {
		panic(fmt.Sprintf("decompose: toffoli8 target %d not in trio (%d,%d,%d)", t, a, m, b))
	}
	out.H(t)
	CCZ8(out, a, m, b)
	out.H(t)
}

// Margolus appends the 3-CNOT relative-phase Toffoli (the Margolus gate):
// equal to CCX(c1, c2, t) up to relative phases that cancel across
// compute/uncompute pairs. Its CNOTs act on pairs (c2,t) and (c1,t), so the
// target must be the middle of a linear trio (or the trio a triangle).
// The gate sequence is its own inverse (reversing and inverting the list
// reproduces it), so RCCX and RCCXdg lower identically; both names exist in
// the IR to keep compute/uncompute intent readable.
func Margolus(out *circuit.Circuit, c1, c2, t int) {
	a := math.Pi / 4
	out.RY(a, t)
	out.CX(c2, t)
	out.RY(a, t)
	out.CX(c1, t)
	out.RY(-a, t)
	out.CX(c2, t)
	out.RY(-a, t)
}

// Swap3CX appends the 3-CNOT expansion of SWAP(a, b).
func Swap3CX(out *circuit.Circuit, a, b int) {
	out.CX(a, b)
	out.CX(b, a)
	out.CX(a, b)
}

// CCXGate lowers a single CCX gate that has already been placed on physical
// qubits, choosing the decomposition per mode and graph connectivity.
// The gate's qubits are (c1, c2, t) in physical coordinates. Returns an
// error if the trio is not at least linearly connected (Auto and Eight
// require a line; Six tolerates a line and leaves non-adjacent CNOTs for a
// later fixup-routing pass).
func CCXGate(out *circuit.Circuit, g circuit.Gate, graph *topo.Graph, mode ToffoliMode) error {
	if g.Name != circuit.CCX {
		return fmt.Errorf("decompose: CCXGate called on %v", g.Name)
	}
	c1, c2, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
	switch mode {
	case Six:
		Toffoli6(out, c1, c2, t)
		return nil
	case Auto:
		if graph.Triangle(c1, c2, t) {
			Toffoli6(out, c1, c2, t)
			return nil
		}
		fallthrough
	case Eight:
		mid, ok := graph.LinearTrio(c1, c2, t)
		if !ok {
			return fmt.Errorf("decompose: trio (%d,%d,%d) not connected on %s", c1, c2, t, graph.Name())
		}
		// Order the trio as a line (left, mid, right).
		rest := make([]int, 0, 2)
		for _, q := range g.Qubits {
			if q != mid {
				rest = append(rest, q)
			}
		}
		Toffoli8(out, rest[0], mid, rest[1], t)
		return nil
	}
	return fmt.Errorf("decompose: unknown toffoli mode %v", mode)
}
