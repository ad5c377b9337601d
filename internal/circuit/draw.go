package circuit

import (
	"fmt"
	"strings"
)

// Draw renders the circuit as an ASCII diagram, one row per qubit with time
// flowing left to right, in the style of textbook circuit figures:
//
//	q0: ─H─●────●─
//	       │    │
//	q1: ───●────X─
//	       │
//	q2: ───X─T────
//
// Controls render as ●, X-targets as X, swaps as x, measures as M; other
// gates use their mnemonic. Gates are placed into moments (columns, the
// schedule Depth folds) so parallel gates share a column. Intended for small circuits; wide circuits
// produce long lines.
func (c *Circuit) Draw() string {
	if c.NumQubits == 0 {
		return ""
	}
	// Each gate draws in the column of its moment; barriers draw nothing.
	// cells[q][col] is the symbol for qubit q at column col; vert[q][col]
	// marks a vertical connector passing between q and q+1 at column col.
	moment := make([]int, len(c.Gates))
	cols := c.moments(func(i, m int) { moment[i] = m })
	cells := make([][]string, c.NumQubits)
	vert := make([][]bool, c.NumQubits)
	width := make([]int, cols)
	for q := range cells {
		cells[q] = make([]string, cols)
		vert[q] = make([]bool, cols)
	}
	for col := range width {
		width[col] = 1
	}
	for i, g := range c.Gates {
		if g.Name == Barrier {
			continue
		}
		col := moment[i] - 1
		lo, hi := g.Qubits[0], g.Qubits[0]
		for _, q := range g.Qubits {
			if q < lo {
				lo = q
			}
			if q > hi {
				hi = q
			}
		}
		for q := lo; q < hi; q++ {
			vert[q][col] = true
		}
		for k, q := range g.Qubits {
			cells[q][col] = gateSymbol(g, k)
			if w := len(cells[q][col]); w > width[col] {
				width[col] = w
			}
		}
	}

	label := make([]string, c.NumQubits)
	labelWidth := 0
	for q := range label {
		label[q] = fmt.Sprintf("q%d: ", q)
		if len(label[q]) > labelWidth {
			labelWidth = len(label[q])
		}
	}

	var b strings.Builder
	for q := 0; q < c.NumQubits; q++ {
		b.WriteString(strings.Repeat(" ", labelWidth-len(label[q])))
		b.WriteString(label[q])
		for col := 0; col < cols; col++ {
			cell := cells[q][col]
			if cell == "" {
				cell = strings.Repeat("─", width[col])
			} else {
				cell += strings.Repeat("─", width[col]-len([]rune(cell)))
			}
			b.WriteString("─")
			b.WriteString(cell)
			b.WriteString("─")
		}
		b.WriteByte('\n')
		// Connector row between qubit lines.
		if q+1 < c.NumQubits {
			hasAny := false
			for col := 0; col < cols; col++ {
				if vert[q][col] {
					hasAny = true
				}
			}
			if hasAny {
				b.WriteString(strings.Repeat(" ", labelWidth))
				for col := 0; col < cols; col++ {
					b.WriteString(" ")
					if vert[q][col] {
						b.WriteString("│")
						b.WriteString(strings.Repeat(" ", width[col]-1))
					} else {
						b.WriteString(strings.Repeat(" ", width[col]))
					}
					b.WriteString(" ")
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// gateSymbol returns the diagram symbol for operand position i of gate g.
func gateSymbol(g Gate, i int) string {
	last := i == len(g.Qubits)-1
	switch g.Name {
	case CX, CCX, MCX:
		if last {
			return "X"
		}
		return "●"
	case CZ, CCZ:
		return "●"
	case CP:
		if last {
			return fmt.Sprintf("P(%.2g)", g.Params[0])
		}
		return "●"
	case SWAP:
		return "x"
	case Measure:
		return "M"
	default:
		s := strings.ToUpper(g.Name.String())
		if len(g.Params) > 0 {
			return fmt.Sprintf("%s(%.2g)", s, g.Params[0])
		}
		return s
	}
}
