// Package optimize holds the single-qubit gate consolidation the compiler's
// output optimizer interleaves with the rewrite engine (internal/rewrite):
// saturation is local, so a mixed-axis 1q run is a fixpoint for its rule
// table, while Consolidate1Q resynthesizes such runs into at most one u-gate
// and can expose new inverse pairs across them.
package optimize

import (
	"math"
	"math/cmplx"

	"trios/internal/circuit"
	"trios/internal/gatemat"
)

// Consolidate1Q merges every maximal run of single-qubit gates on a qubit
// into at most one u-gate, the "single qubit gate consolidation" pass the
// paper cites from Qiskit (§5.2). The run's matrices are multiplied and the
// product resynthesized as u1 (diagonal), u2 (theta = pi/2), or u3, up to
// global phase; identity products vanish entirely.
//
// Multi-qubit gates, barriers, and measures flush the pending run on their
// qubits.
func Consolidate1Q(c *circuit.Circuit) (*circuit.Circuit, error) {
	out := circuit.New(c.NumQubits)
	out.Gates = make([]circuit.Gate, 0, len(c.Gates))
	// pending[q] is the product of qubit q's unflushed run, where open[q].
	pending := make([]gatemat.Mat2, c.NumQubits)
	open := make([]bool, c.NumQubits)

	flush := func(q int) {
		if !open[q] {
			return
		}
		open[q] = false
		resynthesize(out, pending[q], q)
	}

	for _, g := range c.Gates {
		if len(g.Qubits) == 1 && !g.IsPseudo() {
			m, err := gatemat.Single(g.Name, g.Params)
			if err != nil {
				return nil, err
			}
			q := g.Qubits[0]
			if open[q] {
				m = m.Mul(pending[q]) // later gate multiplies on the left
			}
			pending[q], open[q] = m, true
			continue
		}
		for _, q := range g.Qubits {
			flush(q)
		}
		out.Append(g)
	}
	for q := 0; q < c.NumQubits; q++ {
		flush(q)
	}
	return out, nil
}

// resynthesize appends to out the u-gate on qubit q that m is, up to
// global phase, and nothing when m is the identity up to global phase.
//
// With the u3 convention
//
//	u3(t, p, l) = [[cos(t/2), -e^{il} sin(t/2)], [e^{ip} sin(t/2), e^{i(p+l)} cos(t/2)]]
//
// the angles are recovered after removing the global phase that makes the
// (0,0) entry real non-negative.
func resynthesize(out *circuit.Circuit, m gatemat.Mat2, q int) {
	const eps = 1e-12
	c := cmplx.Abs(m[0])
	s := cmplx.Abs(m[2])
	theta := 2 * math.Atan2(s, c)

	var phi, lambda float64
	switch {
	case s < eps:
		// Diagonal: u1 with lambda = relative phase.
		lambda = cmplx.Phase(m[3]) - cmplx.Phase(m[0])
		theta = 0
	case c < eps:
		// Anti-diagonal: theta = pi; fold everything into lambda.
		theta = math.Pi
		phi = 0
		lambda = cmplx.Phase(-m[1]) - cmplx.Phase(m[2])
	default:
		global := cmplx.Phase(m[0])
		phi = cmplx.Phase(m[2]) - global
		lambda = cmplx.Phase(-m[1]) - global
	}

	phi = normalizeAngle(phi)
	lambda = normalizeAngle(lambda)
	qs := []int{q}
	switch {
	case math.Abs(theta) < eps && math.Abs(lambda) < eps && math.Abs(phi) < eps:
		// identity up to global phase
	case math.Abs(theta) < eps:
		out.AppendNew(circuit.U1, qs, normalizeAngle(phi+lambda))
	case math.Abs(theta-math.Pi/2) < eps:
		out.AppendNew(circuit.U2, qs, phi, lambda)
	default:
		out.AppendNew(circuit.U3, qs, theta, phi, lambda)
	}
}

// normalizeAngle wraps an angle into (-pi, pi] and snaps float dust to zero.
func normalizeAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	if math.Abs(a) < 1e-12 {
		return 0
	}
	return a
}
