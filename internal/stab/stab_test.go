package stab

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"trios/internal/circuit"
	"trios/internal/decompose"
)

func TestInitialState(t *testing.T) {
	s := NewState(3)
	want := []string{"+IIZ", "+IZI", "+ZII"}
	got := s.Stabilizers()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stabilizers = %v", got)
		}
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.H(0)
	s.CX(0, 1)
	got := s.Stabilizers()
	// Bell state: stabilized by XX and ZZ.
	want := []string{"+XX", "+ZZ"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bell stabilizers = %v", got)
		}
	}
}

func TestXFlipsSign(t *testing.T) {
	s := NewState(1)
	s.X(0)
	if got := s.Stabilizers(); got[0] != "-Z" {
		t.Errorf("X|0> stabilizer = %v", got)
	}
}

func TestEqualCanonicalization(t *testing.T) {
	// Same state built two ways: |+>|+> via H,H and via H,H with an extra
	// CZ CZ pair that cancels.
	a := NewState(2)
	a.H(0)
	a.H(1)
	b := NewState(2)
	b.H(0)
	b.H(1)
	b.CZ(0, 1)
	b.CZ(0, 1)
	if !a.Equal(b) {
		t.Error("equal states reported different")
	}
	c := NewState(2)
	c.H(0)
	if a.Equal(c) {
		t.Error("different states reported equal")
	}
}

func TestSwapGate(t *testing.T) {
	s := NewState(2)
	s.X(0)
	s.Swap(0, 1)
	got := s.Stabilizers()
	// After X(0), Swap: qubit 1 is |1>: stabilizers -Z on qubit 1, +Z on 0
	// (string index = qubit).
	want := map[string]bool{"+ZI": true, "-IZ": true}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("swap stabilizers = %v", got)
		}
	}
}

func TestNonCliffordRejected(t *testing.T) {
	s := NewState(1)
	if err := s.ApplyGate(circuit.NewGate(circuit.T, []int{0})); err == nil {
		t.Error("T should be rejected")
	}
	if err := s.ApplyGate(circuit.NewGate(circuit.U1, []int{0}, math.Pi/4)); err == nil {
		t.Error("u1(pi/4) should be rejected")
	}
	c := circuit.New(1)
	c.T(0)
	if IsClifford(c) {
		t.Error("IsClifford accepted T")
	}
	c2 := circuit.New(2)
	c2.H(0).CX(0, 1).S(1)
	if !IsClifford(c2) {
		t.Error("IsClifford rejected a Clifford circuit")
	}
}

// TestCliffordEquivalenceAfterLowering checks that lowering a Clifford
// circuit to the IBM basis preserves the stabilizer state at a size the
// statevector could not check cheaply.
func TestCliffordEquivalenceAfterLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := randomClifford(rng, 20, 200)
	lowered, err := decompose.LowerToBasis(c)
	if err != nil {
		t.Fatal(err)
	}
	a := NewState(20)
	if err := a.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	b := NewState(20)
	if err := b.ApplyCircuit(lowered); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("lowering changed a 20-qubit Clifford circuit")
	}
}

func randomClifford(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.S(rng.Intn(n))
		case 2:
			c.X(rng.Intn(n))
		case 3:
			c.Z(rng.Intn(n))
		case 4:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		default:
			p := rng.Perm(n)
			c.CZ(p[0], p[1])
		}
	}
	return c
}

// Generator returns the i-th stabilizer generator as X/Z bit slices over
// qubits plus the sign bit (0 for +, 1 for -). Used by cross-validation
// tests and debugging tools; the returned slices are copies.
func (s *State) Generator(i int) (xs, zs []bool, sign uint8) {
	xs = make([]bool, s.n)
	zs = make([]bool, s.n)
	for q := 0; q < s.n; q++ {
		xs[q] = s.getX(i, q)
		zs[q] = s.getZ(i, q)
	}
	return xs, zs, s.r[i]
}

// Stabilizers renders the generators as Pauli strings for debugging, e.g.
// "+XIZ". Rows are sorted for stable output.
func (s *State) Stabilizers() []string {
	out := make([]string, s.n)
	for i := 0; i < s.n; i++ {
		buf := make([]byte, 0, s.n+1)
		if s.r[i] == 0 {
			buf = append(buf, '+')
		} else {
			buf = append(buf, '-')
		}
		for q := 0; q < s.n; q++ {
			x, z := s.getX(i, q), s.getZ(i, q)
			switch {
			case x && z:
				buf = append(buf, 'Y')
			case x:
				buf = append(buf, 'X')
			case z:
				buf = append(buf, 'Z')
			default:
				buf = append(buf, 'I')
			}
		}
		out[i] = string(buf)
	}
	sort.Strings(out)
	return out
}
