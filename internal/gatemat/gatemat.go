// Package gatemat provides the complex unitary matrices for every gate in
// the circuit IR. It exists to give the simulator and the test suite an
// independent ground truth: decomposition passes are verified by comparing
// the exact unitaries of original and decomposed circuits.
package gatemat

import (
	"fmt"
	"math"

	"trios/internal/circuit"
)

// Mat2 is a 2x2 complex matrix in row-major order: [m00, m01, m10, m11].
type Mat2 [4]complex128

// Identity2 is the single-qubit identity.
var Identity2 = Mat2{1, 0, 0, 1}

// Mul returns the matrix product a*b.
func (a Mat2) Mul(b Mat2) Mat2 {
	return Mat2{
		mul(a[0], b[0]) + mul(a[1], b[2]), mul(a[0], b[1]) + mul(a[1], b[3]),
		mul(a[2], b[0]) + mul(a[3], b[2]), mul(a[2], b[1]) + mul(a[3], b[3]),
	}
}

// mul returns the complex product a*b as amd64 computes it, on every
// architecture: the explicit float64 conversions round each real product
// on its own, so the compiler may not fuse it into the add or subtract
// (arm64, ppc64le and riscv64 would). All four terms stay even where a
// factor is real, since dropping one can flip the sign of a zero, and
// cmplx.Phase reads that sign.
func mul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

func expi(theta float64) complex128 {
	return complex(math.Cos(theta), math.Sin(theta))
}

// U3 returns the IBM u3(theta, phi, lambda) matrix, the general single-qubit
// unitary up to global phase.
func U3(theta, phi, lambda float64) Mat2 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return Mat2{
		c, mul(-expi(lambda), s),
		mul(expi(phi), s), mul(expi(phi+lambda), c),
	}
}

// Single returns the 2x2 matrix for a single-qubit gate kind with the given
// parameters. It returns an error for multi-qubit or pseudo gates.
func Single(name circuit.Name, params []float64) (Mat2, error) {
	sqrt2inv := complex(1/math.Sqrt2, 0)
	switch name {
	case circuit.I:
		return Identity2, nil
	case circuit.X:
		return Mat2{0, 1, 1, 0}, nil
	case circuit.Y:
		return Mat2{0, -1i, 1i, 0}, nil
	case circuit.Z:
		return Mat2{1, 0, 0, -1}, nil
	case circuit.H:
		return Mat2{sqrt2inv, sqrt2inv, sqrt2inv, -sqrt2inv}, nil
	case circuit.S:
		return Mat2{1, 0, 0, 1i}, nil
	case circuit.Sdg:
		return Mat2{1, 0, 0, -1i}, nil
	case circuit.T:
		return Mat2{1, 0, 0, expi(math.Pi / 4)}, nil
	case circuit.Tdg:
		return Mat2{1, 0, 0, expi(-math.Pi / 4)}, nil
	case circuit.SX:
		return Mat2{
			complex(0.5, 0.5), complex(0.5, -0.5),
			complex(0.5, -0.5), complex(0.5, 0.5),
		}, nil
	case circuit.SXdg:
		return Mat2{
			complex(0.5, -0.5), complex(0.5, 0.5),
			complex(0.5, 0.5), complex(0.5, -0.5),
		}, nil
	case circuit.RX:
		t := params[0]
		c, s := complex(math.Cos(t/2), 0), complex(0, -math.Sin(t/2))
		return Mat2{c, s, s, c}, nil
	case circuit.RY:
		t := params[0]
		c, s := complex(math.Cos(t/2), 0), complex(math.Sin(t/2), 0)
		return Mat2{c, -s, s, c}, nil
	case circuit.RZ:
		t := params[0]
		return Mat2{expi(-t / 2), 0, 0, expi(t / 2)}, nil
	case circuit.U1:
		return Mat2{1, 0, 0, expi(params[0])}, nil
	case circuit.U2:
		return U3(math.Pi/2, params[0], params[1]), nil
	case circuit.U3:
		return U3(params[0], params[1], params[2]), nil
	}
	return Mat2{}, fmt.Errorf("gatemat: %v is not a single-qubit unitary", name)
}

// PhaseOf returns the diagonal phase applied by two-qubit phase-type gates:
// for CZ the |11> amplitude is negated; for CP(lambda) it picks up
// e^{i lambda}. Returns ok=false for non-phase gates.
func PhaseOf(name circuit.Name, params []float64) (phase complex128, ok bool) {
	switch name {
	case circuit.CZ, circuit.CCZ:
		return -1, true
	case circuit.CP:
		return expi(params[0]), true
	}
	return 0, false
}
