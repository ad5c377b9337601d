package decompose

import (
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/topo"
)

// KeepToffoli is the first decomposition pass of the Trios pipeline
// (Fig. 2b): it unrolls the input to one- and two-qubit gates *plus intact
// CCX gates*. CCZ becomes CCX conjugated by H so the router only sees one
// kind of trio. MCX gates are expanded into Toffolis using the circuit's
// remaining wires as borrowed bits. An MCX with three or more controls that
// spans the whole n-wire register borrows wire n, one past it, and the
// output grows to n+1 wires; the borrowed wire is restored, so placement
// may put it on any idle device qubit.
func KeepToffoli(c *circuit.Circuit) (*circuit.Circuit, error) {
	out := presized(c, func(n circuit.Name) int {
		if n == circuit.CCZ {
			return 2 // H, CCX, H
		}
		return 0
	})
	for i, g := range c.Gates {
		switch g.Name {
		case circuit.CCX, circuit.RCCX, circuit.RCCXdg:
			out.Append(g)
		case circuit.CCZ:
			t := g.Qubits[2]
			out.H(t)
			out.CCX(g.Qubits[0], g.Qubits[1], t)
			out.H(t)
		case circuit.MCX:
			borrowed := freeWires(c.NumQubits, g.Qubits)
			if len(borrowed) == 0 && len(g.Qubits) > 3 {
				borrowed = []int{c.NumQubits}
				out.NumQubits = c.NumQubits + 1
			}
			if err := MCXBorrowed(out, g.Controls(), g.Target(), borrowed); err != nil {
				return nil, fmt.Errorf("decompose: gate %d: %w", i, err)
			}
		default:
			out.Append(g)
		}
	}
	return out, nil
}

// ToffoliAll is the first decomposition pass of the conventional pipeline
// (Fig. 2a): it unrolls everything, including Toffolis, to one- and
// two-qubit gates before any routing. mode picks the Toffoli form; the
// Qiskit baseline uses Six (the textbook decomposition) and the paper's
// "Qiskit (8-CNOT Toffoli)" configuration uses Eight. With Eight the
// controls-middle ordering (c1, c2) is used since no placement is known yet.
func ToffoliAll(c *circuit.Circuit, mode ToffoliMode) (*circuit.Circuit, error) {
	withToffoli, err := KeepToffoli(c)
	if err != nil {
		return nil, err
	}
	ccx := toffoli6Len - 1
	if mode == Eight {
		ccx = toffoli8Len - 1
	}
	out := presized(withToffoli, func(n circuit.Name) int {
		if n == circuit.CCX {
			return ccx
		}
		return 0
	})
	for _, g := range withToffoli.Gates {
		if g.Name != circuit.CCX {
			out.Append(g)
			continue
		}
		c1, c2, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
		switch mode {
		case Eight:
			// No placement information yet: put c2 in the middle.
			Toffoli8(out, c1, c2, t, t)
		default:
			Toffoli6(out, c1, c2, t)
		}
	}
	return out, nil
}

// MappingAware is the second decomposition pass of the Trios pipeline: the
// input circuit is already routed (physical qubits; CCX operands mutually
// nearby), and each CCX is lowered with knowledge of its placement. In Auto
// mode trios that form a triangle get the 6-CNOT form and linear trios the
// 8-CNOT form with the physically middle qubit in the middle.
func MappingAware(c *circuit.Circuit, graph *topo.Graph, mode ToffoliMode) (*circuit.Circuit, error) {
	ccx := toffoli8Len - 1 // Auto picks this form on a line
	if mode == Six {
		ccx = toffoli6Len - 1
	}
	out := presized(c, func(n circuit.Name) int {
		switch n {
		case circuit.CCX:
			return ccx
		case circuit.RCCX, circuit.RCCXdg:
			return margolusLen - 1
		}
		return 0
	})
	for i, g := range c.Gates {
		switch g.Name {
		case circuit.CCX:
			if err := CCXGate(out, g, graph, mode); err != nil {
				return nil, fmt.Errorf("decompose: gate %d: %w", i, err)
			}
		case circuit.RCCX, circuit.RCCXdg:
			if err := rccxGate(out, g, graph); err != nil {
				return nil, fmt.Errorf("decompose: gate %d: %w", i, err)
			}
		default:
			out.Append(g)
		}
	}
	return out, nil
}

// rccxGate lowers a placed Margolus gate. Its CNOTs touch only the target,
// so the target must be coupled to both controls (middle of the line, or
// any triangle corner); the role-aware trio router guarantees this.
func rccxGate(out *circuit.Circuit, g circuit.Gate, graph *topo.Graph) error {
	c1, c2, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
	if !graph.Connected(c1, t) || !graph.Connected(c2, t) {
		return fmt.Errorf("decompose: rccx target %d not coupled to both controls (%d,%d) on %s", t, c1, c2, graph.Name())
	}
	Margolus(out, c1, c2, t)
	return nil
}

// LowerToBasis rewrites a circuit into the IBM basis {u1, u2, u3, cx}
// (plus measure). SWAPs become 3 CX, CZ/CP become CX + u1 conjugations, and
// named single-qubit gates become u-gates. CCX/CCZ/MCX must already be
// decomposed; they cause an error.
func LowerToBasis(c *circuit.Circuit) (*circuit.Circuit, error) {
	out := presized(c, func(n circuit.Name) int {
		switch n {
		case circuit.SWAP, circuit.CZ:
			return 2
		case circuit.CP:
			return 4
		}
		return 0
	})
	for i, g := range c.Gates {
		if err := lowerGate(out, g); err != nil {
			return nil, fmt.Errorf("decompose: gate %d: %w", i, err)
		}
	}
	return out, nil
}

func lowerGate(out *circuit.Circuit, g circuit.Gate) error {
	pi := math.Pi
	switch g.Name {
	case circuit.Measure:
		out.Append(g)
	case circuit.Barrier:
		out.Append(g)
	case circuit.I:
		// Identity: dropped.
	case circuit.X:
		out.U3(pi, 0, pi, g.Qubits[0])
	case circuit.Y:
		out.U3(pi, pi/2, pi/2, g.Qubits[0])
	case circuit.Z:
		out.U1(pi, g.Qubits[0])
	case circuit.H:
		out.U2(0, pi, g.Qubits[0])
	case circuit.S:
		out.U1(pi/2, g.Qubits[0])
	case circuit.Sdg:
		out.U1(-pi/2, g.Qubits[0])
	case circuit.T:
		out.U1(pi/4, g.Qubits[0])
	case circuit.Tdg:
		out.U1(-pi/4, g.Qubits[0])
	case circuit.SX:
		out.U3(pi/2, -pi/2, pi/2, g.Qubits[0])
	case circuit.SXdg:
		out.U3(-pi/2, -pi/2, pi/2, g.Qubits[0])
	case circuit.RX:
		out.U3(g.Params[0], -pi/2, pi/2, g.Qubits[0])
	case circuit.RY:
		out.U3(g.Params[0], 0, 0, g.Qubits[0])
	case circuit.RZ:
		out.U1(g.Params[0], g.Qubits[0]) // equal to rz up to global phase
	case circuit.U1, circuit.U2, circuit.U3, circuit.CX:
		out.Append(g)
	case circuit.CZ:
		t := g.Qubits[1]
		out.U2(0, pi, t)
		out.CX(g.Qubits[0], t)
		out.U2(0, pi, t)
	case circuit.CP:
		a, b, lam := g.Qubits[0], g.Qubits[1], g.Params[0]
		out.U1(lam/2, a)
		out.CX(a, b)
		out.U1(-lam/2, b)
		out.CX(a, b)
		out.U1(lam/2, b)
	case circuit.SWAP:
		Swap3CX(out, g.Qubits[0], g.Qubits[1])
	default:
		return fmt.Errorf("cannot lower %v to the {u1,u2,u3,cx} basis", g.Name)
	}
	return nil
}

// presized returns an empty circuit on c's qubits with room for c's gates
// after expansion: one slot per gate, plus extra(name) for each gate, the
// number of gates beyond one that its expansion appends. Appends past the
// estimate still grow the slice, so it only saves regrowing the output,
// never changes it.
func presized(c *circuit.Circuit, extra func(circuit.Name) int) *circuit.Circuit {
	size := len(c.Gates)
	for _, g := range c.Gates {
		size += extra(g.Name)
	}
	out := circuit.New(c.NumQubits)
	out.Gates = make([]circuit.Gate, 0, size)
	return out
}

// freeWires returns the qubits of an n-qubit circuit not used by the gate's
// operand list, available as borrowed bits.
func freeWires(n int, used []int) []int {
	inUse := make(map[int]bool, len(used))
	for _, q := range used {
		inUse[q] = true
	}
	var free []int
	for q := 0; q < n; q++ {
		if !inUse[q] {
			free = append(free, q)
		}
	}
	return free
}
