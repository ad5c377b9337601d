package circuit

import (
	"fmt"
	"strings"
)

// Circuit is an ordered sequence of gates on NumQubits qubits.
// The zero value is an empty circuit on zero qubits.
type Circuit struct {
	NumQubits int
	Gates     []Gate
	// ops is the slab the builders carve gate operands from. It is held
	// by pointer, so value copies of a circuit share one cursor and never
	// hand out the same region twice.
	ops *operands
}

// Operand chunks grow with the circuit: the first holds firstChunk
// operands and each next one twice the last, up to maxChunk (32 KiB of
// ints or float64s, the largest small-object size), so a five-gate
// circuit pins a few hundred bytes and a long one allocates once per
// maxChunk operands.
const (
	firstChunk = 32
	maxChunk   = 4096
)

// operands is a circuit's operand slab: one chunk series for qubits and
// one for parameters. A chunk stays alive while any gate carved from it
// does.
type operands struct {
	qubits chunks[int]
	params chunks[float64]
}

// chunks is one series of operand chunks: the unused tail of the current
// chunk and the size of the last one.
type chunks[T any] struct {
	free []T
	last int
}

// carve returns n fresh elements from the current chunk, starting a new
// chunk when fewer than n remain. The result is capacity-clipped, so
// appending to one gate's operands reallocates instead of overwriting its
// neighbour's. A list longer than a whole chunk gets an allocation of its
// own.
func (k *chunks[T]) carve(n int) []T {
	if n == 0 {
		return []T{}
	}
	if n > len(k.free) {
		size := min(max(2*k.last, firstChunk), maxChunk)
		if n > size {
			return make([]T, n)
		}
		k.last = size
		k.free = make([]T, size)
	}
	s := k.free[:n:n]
	k.free = k.free[n:]
	return s
}

// slab returns the circuit's operand slab, creating it on first use.
func (c *Circuit) slab() *operands {
	if c.ops == nil {
		c.ops = new(operands)
	}
	return c.ops
}

// AppendNew appends NewGate(name, qubits, params...), with the operands
// copied into the circuit's slab: the caller keeps qubits and params, and
// the gate costs no allocation of its own. It panics as NewGate does.
func (c *Circuit) AppendNew(name Name, qubits []int, params ...float64) *Circuit {
	o := c.slab()
	q := o.qubits.carve(len(qubits))
	copy(q, qubits)
	var p []float64
	if len(params) > 0 {
		p = o.params.carve(len(params))
		copy(p, params)
	}
	return c.add(NewGate(name, q, p...))
}

// AppendMapped appends g with every qubit q replaced by f(q), the new
// operand list carved from the circuit's slab; g's parameters are shared,
// as Gate.Remap shares them. It panics as Gate.Remap does.
func (c *Circuit) AppendMapped(g Gate, f func(int) int) *Circuit {
	q := c.slab().qubits.carve(len(g.Qubits))
	for i, v := range g.Qubits {
		q[i] = f(v)
	}
	return c.add(NewGate(g.Name, q, g.Params...))
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{NumQubits: n}
}

// Append adds gates to the end of the circuit, growing NumQubits if a gate
// references a qubit beyond the current range.
func (c *Circuit) Append(gs ...Gate) *Circuit {
	for _, g := range gs {
		c.add(g)
	}
	return c
}

// add appends one gate as Append does.
func (c *Circuit) add(g Gate) *Circuit {
	for _, q := range g.Qubits {
		if q >= c.NumQubits {
			c.NumQubits = q + 1
		}
	}
	c.Gates = append(c.Gates, g)
	return c
}

// AppendCircuit appends all gates of o to c.
func (c *Circuit) AppendCircuit(o *Circuit) *Circuit {
	if o.NumQubits > c.NumQubits {
		c.NumQubits = o.NumQubits
	}
	return c.Append(o.Gates...)
}

// Builder helpers. Each appends one gate and returns the circuit to allow
// chaining when constructing test fixtures and benchmark circuits. Their
// operands come from the circuit's slab (see AppendNew).

func (c *Circuit) I(q int) *Circuit    { return c.AppendNew(I, []int{q}) }
func (c *Circuit) X(q int) *Circuit    { return c.AppendNew(X, []int{q}) }
func (c *Circuit) Y(q int) *Circuit    { return c.AppendNew(Y, []int{q}) }
func (c *Circuit) Z(q int) *Circuit    { return c.AppendNew(Z, []int{q}) }
func (c *Circuit) H(q int) *Circuit    { return c.AppendNew(H, []int{q}) }
func (c *Circuit) S(q int) *Circuit    { return c.AppendNew(S, []int{q}) }
func (c *Circuit) Sdg(q int) *Circuit  { return c.AppendNew(Sdg, []int{q}) }
func (c *Circuit) T(q int) *Circuit    { return c.AppendNew(T, []int{q}) }
func (c *Circuit) Tdg(q int) *Circuit  { return c.AppendNew(Tdg, []int{q}) }
func (c *Circuit) SX(q int) *Circuit   { return c.AppendNew(SX, []int{q}) }
func (c *Circuit) SXdg(q int) *Circuit { return c.AppendNew(SXdg, []int{q}) }

func (c *Circuit) RX(theta float64, q int) *Circuit { return c.AppendNew(RX, []int{q}, theta) }
func (c *Circuit) RY(theta float64, q int) *Circuit { return c.AppendNew(RY, []int{q}, theta) }
func (c *Circuit) RZ(theta float64, q int) *Circuit { return c.AppendNew(RZ, []int{q}, theta) }
func (c *Circuit) U1(lambda float64, q int) *Circuit {
	return c.AppendNew(U1, []int{q}, lambda)
}
func (c *Circuit) U2(phi, lambda float64, q int) *Circuit {
	return c.AppendNew(U2, []int{q}, phi, lambda)
}
func (c *Circuit) U3(theta, phi, lambda float64, q int) *Circuit {
	return c.AppendNew(U3, []int{q}, theta, phi, lambda)
}

func (c *Circuit) CX(ctl, tgt int) *Circuit { return c.AppendNew(CX, []int{ctl, tgt}) }
func (c *Circuit) CZ(a, b int) *Circuit     { return c.AppendNew(CZ, []int{a, b}) }
func (c *Circuit) CP(lambda float64, a, b int) *Circuit {
	return c.AppendNew(CP, []int{a, b}, lambda)
}
func (c *Circuit) SWAP(a, b int) *Circuit { return c.AppendNew(SWAP, []int{a, b}) }

func (c *Circuit) CCX(c1, c2, tgt int) *Circuit { return c.AppendNew(CCX, []int{c1, c2, tgt}) }
func (c *Circuit) CCZ(a, b, d int) *Circuit     { return c.AppendNew(CCZ, []int{a, b, d}) }
func (c *Circuit) RCCX(c1, c2, tgt int) *Circuit {
	return c.AppendNew(RCCX, []int{c1, c2, tgt})
}
func (c *Circuit) RCCXdg(c1, c2, tgt int) *Circuit {
	return c.AppendNew(RCCXdg, []int{c1, c2, tgt})
}

// MCX appends a multi-controlled X with the given controls and target.
func (c *Circuit) MCX(controls []int, tgt int) *Circuit {
	q := c.slab().qubits.carve(len(controls) + 1)
	copy(q, controls)
	q[len(controls)] = tgt
	return c.add(NewGate(MCX, q))
}

func (c *Circuit) Measure(q int) *Circuit { return c.AppendNew(Measure, []int{q}) }

// Barrier appends a barrier over the given qubits (all qubits if none given).
func (c *Circuit) Barrier(qs ...int) *Circuit {
	if len(qs) == 0 {
		all := c.slab().qubits.carve(c.NumQubits)
		for i := range all {
			all[i] = i
		}
		return c.add(Gate{Name: Barrier, Qubits: all})
	}
	q := c.slab().qubits.carve(len(qs))
	copy(q, qs)
	return c.add(Gate{Name: Barrier, Qubits: q})
}

// Copy returns a deep copy of the circuit.
func (c *Circuit) Copy() *Circuit {
	out := &Circuit{NumQubits: c.NumQubits, Gates: make([]Gate, len(c.Gates))}
	o := out.slab()
	for i, g := range c.Gates {
		q := o.qubits.carve(len(g.Qubits))
		copy(q, g.Qubits)
		var p []float64
		if len(g.Params) > 0 {
			p = o.params.carve(len(g.Params))
			copy(p, g.Params)
		}
		out.Gates[i] = Gate{Name: g.Name, Qubits: q, Params: p}
	}
	return out
}

// StripPseudo returns the circuit without Measure and Barrier pseudo-ops,
// as the simulation engine's equivalence paths require. When the circuit
// has no pseudo-ops the receiver itself is returned — treat the result as
// read-only.
func (c *Circuit) StripPseudo() *Circuit {
	pseudo := 0
	for _, g := range c.Gates {
		if g.IsPseudo() {
			pseudo++
		}
	}
	if pseudo == 0 {
		return c
	}
	out := New(c.NumQubits)
	for _, g := range c.Gates {
		if !g.IsPseudo() {
			out.Append(g)
		}
	}
	return out
}

// Inverse returns the adjoint circuit: gates reversed and each inverted.
// Pseudo-ops (measure, barrier) are not meaningful to invert and cause a panic.
func (c *Circuit) Inverse() *Circuit {
	out := New(c.NumQubits)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := c.Gates[i]
		if g.IsPseudo() {
			panic("circuit: cannot invert a circuit containing measure/barrier")
		}
		out.Append(g.Inverse())
	}
	return out
}

// Equal reports whether two circuits have identical qubit counts and
// gate sequences.
func (c *Circuit) Equal(o *Circuit) bool {
	if c.NumQubits != o.NumQubits || len(c.Gates) != len(o.Gates) {
		return false
	}
	for i := range c.Gates {
		if !c.Gates[i].Equal(o.Gates[i]) {
			return false
		}
	}
	return true
}

// Remap returns a copy of the circuit with qubits renamed by f.
// The resulting circuit has n qubits.
func (c *Circuit) Remap(n int, f func(int) int) *Circuit {
	out := New(n)
	for _, g := range c.Gates {
		out.AppendMapped(g, f)
	}
	return out
}

// Stats summarizes gate composition of a circuit.
type Stats struct {
	Total      int // all gates excluding barriers
	OneQubit   int
	TwoQubit   int // CX/CZ/CP count + 3 per SWAP (SWAP ~ 3 CX)
	Swaps      int
	Toffolis   int // CCX + CCZ
	MCXs       int
	Measures   int
	MaxArity   int
	ParamGates int
}

// CollectStats scans the circuit once and tabulates composition counts.
//
// TwoQubit counts each SWAP as 3 two-qubit gates so it matches the paper's
// "total two-qubit gate count" metric for circuits where SWAPs have not yet
// been decomposed.
func (c *Circuit) CollectStats() Stats {
	var s Stats
	for _, g := range c.Gates {
		if g.Name == Barrier {
			continue
		}
		s.Total++
		if len(g.Qubits) > s.MaxArity {
			s.MaxArity = len(g.Qubits)
		}
		if len(g.Params) > 0 {
			s.ParamGates++
		}
		switch {
		case g.Name == Measure:
			s.Measures++
		case g.Name == SWAP:
			s.Swaps++
			s.TwoQubit += 3
		case g.IsTwoQubit():
			s.TwoQubit++
		case g.Name == CCX || g.Name == CCZ || g.Name == RCCX || g.Name == RCCXdg:
			s.Toffolis++
		case g.Name == MCX:
			s.MCXs++
		case len(g.Qubits) == 1:
			s.OneQubit++
		}
	}
	return s
}

// TwoQubitCount returns the circuit's two-qubit gate count with SWAPs
// counted as 3 CNOTs each.
func (c *Circuit) TwoQubitCount() int { return c.CollectStats().TwoQubit }

// CountName returns the number of gates with the given name.
func (c *Circuit) CountName(n Name) int {
	count := 0
	for _, g := range c.Gates {
		if g.Name == n {
			count++
		}
	}
	return count
}

// Depth returns the circuit depth: the length of the longest chain of gates
// that share qubits. Barriers synchronize all their qubits but do not add
// depth themselves.
func (c *Circuit) Depth() int { return c.moments(nil) }

// moments folds the circuit's ASAP schedule and returns its depth: each gate
// lands one moment past the latest moment on its qubits, and a barrier
// takes that latest moment without adding one. at, when non-nil, sees each
// gate's moment (from 1; a barrier on idle qubits sits at 0).
func (c *Circuit) moments(at func(i, m int)) int {
	level := make([]int, c.NumQubits)
	depth := 0
	for i, g := range c.Gates {
		d := 0
		for _, q := range g.Qubits {
			if level[q] > d {
				d = level[q]
			}
		}
		if g.Name != Barrier {
			d++
		}
		for _, q := range g.Qubits {
			level[q] = d
		}
		if d > depth {
			depth = d
		}
		if at != nil {
			at(i, d)
		}
	}
	return depth
}

// String renders the circuit as one gate per line.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit(%d qubits, %d gates)\n", c.NumQubits, len(c.Gates))
	for _, g := range c.Gates {
		b.WriteString("  ")
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks internal consistency: all qubit indices are in range.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			if q < 0 || q >= c.NumQubits {
				return fmt.Errorf("circuit: gate %d (%v) references qubit %d outside [0,%d)", i, g.Name, q, c.NumQubits)
			}
		}
	}
	return nil
}
