package circuit

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestNameString(t *testing.T) {
	cases := map[Name]string{
		X: "x", H: "h", Tdg: "tdg", CX: "cx", CCX: "ccx", SWAP: "swap",
		U3: "u3", Measure: "measure", Barrier: "barrier", MCX: "mcx",
	}
	for n, want := range cases {
		if got := n.String(); got != want {
			t.Errorf("Name(%d).String() = %q, want %q", int(n), got, want)
		}
	}
	if got := Name(-1).String(); !strings.Contains(got, "gate(") {
		t.Errorf("invalid name string = %q", got)
	}
}

func TestParseName(t *testing.T) {
	for n := Name(0); n < numNames; n++ {
		got, ok := ParseName(n.String())
		if !ok || got != n {
			t.Errorf("ParseName(%q) = %v, %v", n.String(), got, ok)
		}
	}
	if _, ok := ParseName("bogus"); ok {
		t.Error("ParseName accepted bogus name")
	}
}

func TestArityAndParams(t *testing.T) {
	if CX.Arity() != 2 || CCX.Arity() != 3 || H.Arity() != 1 {
		t.Error("wrong fixed arities")
	}
	if MCX.Arity() != -1 || Barrier.Arity() != -1 {
		t.Error("variable-arity gates should report -1")
	}
	if U3.ParamCount() != 3 || U2.ParamCount() != 2 || RZ.ParamCount() != 1 || X.ParamCount() != 0 {
		t.Error("wrong param counts")
	}
}

func TestNewGateValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("wrong arity", func() { NewGate(CX, []int{1}) })
	mustPanic("wrong params", func() { NewGate(RZ, []int{0}) })
	mustPanic("duplicate qubit", func() { NewGate(CX, []int{1, 1}) })
	mustPanic("negative qubit", func() { NewGate(X, []int{-1}) })
	mustPanic("mcx too small", func() { NewGate(MCX, []int{3}) })
}

func TestGateAccessors(t *testing.T) {
	g := NewGate(CCX, []int{4, 7, 2})
	if g.Target() != 2 {
		t.Errorf("Target = %d, want 2", g.Target())
	}
	if c := g.Controls(); len(c) != 2 || c[0] != 4 || c[1] != 7 {
		t.Errorf("Controls = %v", c)
	}
}

func TestIsTwoQubit(t *testing.T) {
	two := []Name{CX, CZ, SWAP}
	for _, n := range two {
		g := Gate{Name: n, Qubits: []int{0, 1}}
		if !g.IsTwoQubit() {
			t.Errorf("%v should be two-qubit", n)
		}
	}
	g := NewGate(CCX, []int{0, 1, 2})
	if g.IsTwoQubit() {
		t.Error("CCX is not a two-qubit gate")
	}
	cp := NewGate(CP, []int{0, 1}, 0.5)
	if !cp.IsTwoQubit() {
		t.Error("CP should be two-qubit")
	}
}

func TestGateInverse(t *testing.T) {
	cases := []struct {
		g, want Gate
	}{
		{NewGate(S, []int{0}), NewGate(Sdg, []int{0})},
		{NewGate(Sdg, []int{0}), NewGate(S, []int{0})},
		{NewGate(T, []int{0}), NewGate(Tdg, []int{0})},
		{NewGate(Tdg, []int{0}), NewGate(T, []int{0})},
		{NewGate(SX, []int{0}), NewGate(SXdg, []int{0})},
		{NewGate(RZ, []int{0}, 1.5), NewGate(RZ, []int{0}, -1.5)},
		{NewGate(CP, []int{0, 1}, 0.7), NewGate(CP, []int{0, 1}, -0.7)},
		{NewGate(X, []int{0}), NewGate(X, []int{0})},
		{NewGate(CCX, []int{0, 1, 2}), NewGate(CCX, []int{0, 1, 2})},
	}
	for _, c := range cases {
		if got := c.g.Inverse(); !got.Equal(c.want) {
			t.Errorf("%v.Inverse() = %v, want %v", c.g, got, c.want)
		}
	}
	// u2/u3 inverses verified numerically in the sim package tests; here just
	// check shape.
	inv := NewGate(U2, []int{0}, 0.3, 0.9).Inverse()
	if inv.Name != U3 || len(inv.Params) != 3 {
		t.Errorf("u2 inverse = %v", inv)
	}
	inv3 := NewGate(U3, []int{0}, 0.1, 0.2, 0.3).Inverse()
	want := NewGate(U3, []int{0}, -0.1, -0.3, -0.2)
	if !inv3.Equal(want) {
		t.Errorf("u3 inverse = %v, want %v", inv3, want)
	}
}

// TestIsInverseMatchesInverse holds IsInverse to its definition,
// Inverse().Equal, on every ordered pair of a pool of gates of each kind:
// each with a few parameter draws (signed zeros and NaN among them), its
// inverse, and a copy with its operands reversed.
func TestIsInverseMatchesInverse(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 0.5, -0.5, math.Pi / 2, -math.Pi / 2, math.NaN()}
	var pool []Gate
	for n := Name(0); n.Valid(); n++ {
		if n == Measure || n == Barrier {
			continue
		}
		qs := []int{0, 1, 2}[:max(n.Arity(), 0)]
		if n == MCX {
			qs = []int{0, 1, 2}
		}
		for d := 0; d < 4; d++ {
			params := make([]float64, n.ParamCount())
			for k := range params {
				params[k] = values[(d*3+k*5)%len(values)]
			}
			g := NewGate(n, qs, params...)
			rev := slices.Clone(qs)
			slices.Reverse(rev)
			pool = append(pool, g, g.Inverse(), NewGate(n, rev, params...))
		}
	}
	for _, a := range pool {
		for _, b := range pool {
			if got, want := a.IsInverse(b), a.Inverse().Equal(b); got != want {
				t.Errorf("%v.IsInverse(%v) = %v, Inverse().Equal says %v", a, b, got, want)
			}
		}
	}
}

func TestGateString(t *testing.T) {
	g := NewGate(CX, []int{0, 3})
	if got := g.String(); got != "cx q[0], q[3]" {
		t.Errorf("String = %q", got)
	}
	r := NewGate(RZ, []int{1}, math.Pi)
	if got := r.String(); !strings.HasPrefix(got, "rz(3.14") {
		t.Errorf("String = %q", got)
	}
}

func TestGateEqual(t *testing.T) {
	a := NewGate(RZ, []int{0}, 0.5)
	if !a.Equal(NewGate(RZ, []int{0}, 0.5)) {
		t.Error("identical gates unequal")
	}
	if a.Equal(NewGate(RZ, []int{0}, 0.6)) {
		t.Error("different params equal")
	}
	if a.Equal(NewGate(RZ, []int{1}, 0.5)) {
		t.Error("different qubits equal")
	}
	if a.Equal(NewGate(RX, []int{0}, 0.5)) {
		t.Error("different names equal")
	}
}
