package gatemat

import (
	"math"
	"math/cmplx"
	"testing"

	"trios/internal/circuit"
)

func TestAllSingleQubitGatesUnitary(t *testing.T) {
	cases := []struct {
		name   circuit.Name
		params []float64
	}{
		{circuit.I, nil}, {circuit.X, nil}, {circuit.Y, nil}, {circuit.Z, nil},
		{circuit.H, nil}, {circuit.S, nil}, {circuit.Sdg, nil},
		{circuit.T, nil}, {circuit.Tdg, nil}, {circuit.SX, nil}, {circuit.SXdg, nil},
		{circuit.RX, []float64{0.7}}, {circuit.RY, []float64{1.3}}, {circuit.RZ, []float64{2.1}},
		{circuit.U1, []float64{0.4}}, {circuit.U2, []float64{0.3, 1.1}},
		{circuit.U3, []float64{0.5, 0.6, 0.7}},
	}
	for _, c := range cases {
		m, err := Single(c.name, c.params)
		if err != nil {
			t.Fatalf("%v: %v", c.name, err)
		}
		if !m.IsUnitary(1e-12) {
			t.Errorf("%v matrix is not unitary: %v", c.name, m)
		}
	}
}

func TestSingleRejectsMultiQubit(t *testing.T) {
	if _, err := Single(circuit.CX, nil); err == nil {
		t.Error("expected error for cx")
	}
	if _, err := Single(circuit.Measure, nil); err == nil {
		t.Error("expected error for measure")
	}
}

func TestInverseGatesMultiplyToIdentity(t *testing.T) {
	pairs := [][2]circuit.Name{
		{circuit.S, circuit.Sdg}, {circuit.T, circuit.Tdg}, {circuit.SX, circuit.SXdg},
	}
	for _, p := range pairs {
		a, _ := Single(p[0], nil)
		b, _ := Single(p[1], nil)
		prod := a.Mul(b)
		if cmplx.Abs(prod[0]-1) > 1e-12 || cmplx.Abs(prod[3]-1) > 1e-12 ||
			cmplx.Abs(prod[1]) > 1e-12 || cmplx.Abs(prod[2]) > 1e-12 {
			t.Errorf("%v * %v != I: %v", p[0], p[1], prod)
		}
	}
}

func TestHSquaredIsIdentity(t *testing.T) {
	h, _ := Single(circuit.H, nil)
	p := h.Mul(h)
	if cmplx.Abs(p[0]-1) > 1e-12 || cmplx.Abs(p[1]) > 1e-12 {
		t.Errorf("H^2 != I: %v", p)
	}
}

func TestTFourthPowerIsZ(t *testing.T) {
	tm, _ := Single(circuit.T, nil)
	z, _ := Single(circuit.Z, nil)
	p := tm.Mul(tm).Mul(tm).Mul(tm)
	for i := range p {
		if cmplx.Abs(p[i]-z[i]) > 1e-12 {
			t.Fatalf("T^4 != Z: %v vs %v", p, z)
		}
	}
}

func TestU3Decompositions(t *testing.T) {
	// x = u3(pi, 0, pi) up to global phase; compare against X exactly here
	// since the standard convention gives exactly X.
	x, _ := Single(circuit.X, nil)
	u := U3(math.Pi, 0, math.Pi)
	for i := range u {
		if cmplx.Abs(u[i]-x[i]) > 1e-12 {
			t.Fatalf("u3(pi,0,pi) != X: %v", u)
		}
	}
	// h = u2(0, pi).
	h, _ := Single(circuit.H, nil)
	u2, _ := Single(circuit.U2, []float64{0, math.Pi})
	for i := range u2 {
		if cmplx.Abs(u2[i]-h[i]) > 1e-12 {
			t.Fatalf("u2(0,pi) != H: %v", u2)
		}
	}
}

func TestSXSquaredIsX(t *testing.T) {
	sx, _ := Single(circuit.SX, nil)
	x, _ := Single(circuit.X, nil)
	p := sx.Mul(sx)
	for i := range p {
		if cmplx.Abs(p[i]-x[i]) > 1e-12 {
			t.Fatalf("SX^2 != X: %v", p)
		}
	}
}

func TestPhaseOf(t *testing.T) {
	if ph, ok := PhaseOf(circuit.CZ, nil); !ok || ph != -1 {
		t.Errorf("cz phase = %v, %v", ph, ok)
	}
	if ph, ok := PhaseOf(circuit.CP, []float64{math.Pi}); !ok || cmplx.Abs(ph+1) > 1e-12 {
		t.Errorf("cp(pi) phase = %v", ph)
	}
	if _, ok := PhaseOf(circuit.CX, nil); ok {
		t.Error("cx is not a phase gate")
	}
}

func TestAdjoint(t *testing.T) {
	m := U3(0.3, 0.7, 1.9)
	p := m.Adjoint().Mul(m)
	if cmplx.Abs(p[0]-1) > 1e-12 || cmplx.Abs(p[1]) > 1e-12 {
		t.Errorf("adjoint not inverse: %v", p)
	}
}

// Adjoint returns the conjugate transpose.
func (a Mat2) Adjoint() Mat2 {
	return Mat2{
		cmplx.Conj(a[0]), cmplx.Conj(a[2]),
		cmplx.Conj(a[1]), cmplx.Conj(a[3]),
	}
}

// IsUnitary reports whether a†a = I within tolerance.
func (a Mat2) IsUnitary(tol float64) bool {
	p := a.Adjoint().Mul(a)
	return cmplx.Abs(p[0]-1) < tol && cmplx.Abs(p[3]-1) < tol &&
		cmplx.Abs(p[1]) < tol && cmplx.Abs(p[2]) < tol
}
