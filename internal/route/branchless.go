package route

import (
	"math"

	"trios/internal/circuit"
)

// Branch-free scoring primitives shared by the stochastic and lookahead
// routers. The hot sweeps follow the arithmetic-select idiom from the
// branch-avoiding graph-algorithms literature: comparisons become sign
// masks, conditional updates become mask blends, and the only branches left
// are the loop back-edges — so a mispredicted candidate can't stall the
// pipeline.
//
// Caveat, documented once here: the float selects derive their masks from
// the sign bit of a subtraction. On the connected device graphs the routers
// run on, every cost is finite and non-negative, so the subtraction can
// produce neither NaN (needs Inf-Inf, i.e. unreachable pairs) nor -0 as a
// comparison result, and the masks agree exactly with `<` comparisons —
// TestSearchRoutersPinned pins the routed output on every paper device.

// eqMask returns an all-ones int when x == y and 0 otherwise, for small
// non-negative x and y (qubit indices). x^y is 0 iff equal; subtracting 1
// turns exactly that case negative, and an arithmetic shift smears the sign
// bit across the word.
func eqMask(x, y int) int { return ((x ^ y) - 1) >> 63 }

// swapSel maps physical qubit p through the hypothetical swap (e0, e1)
// without branching: the xor delta e0^e1 is applied only when p is one of
// the endpoints.
func swapSel(p, e0, e1, x int) int {
	return p ^ (x & (eqMask(p, e0) | eqMask(p, e1)))
}

// slabCosts are the lookahead sweep's gate-cost slabs over physical
// positions (index a*nq+b): pair is a two-qubit gate's remaining routing
// cost, and trio feeds the meeting-point min-sum, less trioAdj.
type slabCosts struct {
	pair, trio []float64
	trioAdj    float64
	nq         int
}

// score is the window gate's weighted routing cost with its operands
// mapped through the hypothetical swap (e0, e1), x = e0^e1; x = 0 scores it
// at rest. A trio costs its meeting-point min-sum: the least, over its
// operands, of the summed cost from that operand to all three (sign-mask
// min, strict <, first wins ties). The explicit conversions round the
// weighted cost, so no platform fuses it into the caller's running sum.
func (wg *winGate) score(c *slabCosts, e0, e1, x int) float64 {
	nq := c.nq
	p0 := swapSel(wg.p0, e0, e1, x)
	p1 := swapSel(wg.p1, e0, e1, x)
	if wg.arity == 2 {
		return float64(wg.w * c.pair[p0*nq+p1])
	}
	p2 := swapSel(wg.p2, e0, e1, x)
	t := c.trio
	s0 := t[p0*nq+p0] + t[p0*nq+p1] + t[p0*nq+p2]
	s1 := t[p1*nq+p0] + t[p1*nq+p1] + t[p1*nq+p2]
	s2 := t[p2*nq+p0] + t[p2*nq+p1] + t[p2*nq+p2]
	m1 := uint64(int64(math.Float64bits(s1-s0)) >> 63)
	b01 := math.Float64bits(s1)&m1 | math.Float64bits(s0)&^m1
	f01 := math.Float64frombits(b01)
	m2 := uint64(int64(math.Float64bits(s2-f01)) >> 63)
	best := math.Float64frombits(math.Float64bits(s2)&m2 | b01&^m2)
	return float64(wg.w * (best - c.trioAdj))
}

// appendWinGate captures one window gate's scoring shape for the lookahead
// sweep: physical operands resolved against the current (fixed) layout and
// the accumulation weight. Gates with more than three operands score 0, so
// they are skipped.
func appendWinGate(win []winGate, s *state, gate circuit.Gate, w float64) []winGate {
	switch len(gate.Qubits) {
	case 2:
		return append(win, winGate{w: w, arity: 2,
			p0: s.l.Phys(gate.Qubits[0]), p1: s.l.Phys(gate.Qubits[1])})
	case 3:
		return append(win, winGate{w: w, arity: 3,
			p0: s.l.Phys(gate.Qubits[0]), p1: s.l.Phys(gate.Qubits[1]), p2: s.l.Phys(gate.Qubits[2])})
	}
	return win
}
