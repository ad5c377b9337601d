package sim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"trios/internal/circuit"
)

func TestNewStateIsZero(t *testing.T) {
	s := NewState(3)
	if s.Probability(0) != 1 {
		t.Error("|000> amplitude wrong")
	}
	for i := uint64(1); i < 8; i++ {
		if s.Probability(i) != 0 {
			t.Errorf("amplitude %d nonzero", i)
		}
	}
}

func TestBasisState(t *testing.T) {
	s := NewBasisState(3, 5)
	if s.Probability(5) != 1 {
		t.Error("basis state wrong")
	}
}

func TestXFlipsBit(t *testing.T) {
	s := NewState(2)
	s.ApplyGate(circuit.NewGate(circuit.X, []int{1}))
	if s.Probability(2) != 1 { // qubit 1 = bit 1
		t.Errorf("X on qubit 1: state %v", s.amp)
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.ApplyGate(circuit.NewGate(circuit.H, []int{0}))
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(1)-0.5) > 1e-12 {
		t.Error("H did not create equal superposition")
	}
}

func TestBellState(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CX(0, 1)
	s := NewState(2)
	if err := s.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(3)-0.5) > 1e-12 {
		t.Errorf("bell state probabilities: %v %v", s.Probability(0), s.Probability(3))
	}
	if s.Probability(1) > 1e-12 || s.Probability(2) > 1e-12 {
		t.Error("bell state has weight on |01>/|10>")
	}
}

func TestCCXTruthTable(t *testing.T) {
	for in := uint64(0); in < 8; in++ {
		c := circuit.New(3)
		c.CCX(0, 1, 2)
		out, err := ClassicalOutput(c, in)
		if err != nil {
			t.Fatal(err)
		}
		want := in
		if in&3 == 3 {
			want ^= 4
		}
		if out != want {
			t.Errorf("ccx(%03b) = %03b, want %03b", in, out, want)
		}
	}
}

func TestMCXTruthTable(t *testing.T) {
	c := circuit.New(4)
	c.MCX([]int{0, 1, 2}, 3)
	for in := uint64(0); in < 16; in++ {
		out, err := ClassicalOutput(c, in)
		if err != nil {
			t.Fatal(err)
		}
		want := in
		if in&7 == 7 {
			want ^= 8
		}
		if out != want {
			t.Errorf("mcx(%04b) = %04b, want %04b", in, out, want)
		}
	}
}

func TestSwapGate(t *testing.T) {
	c := circuit.New(2)
	c.X(0).SWAP(0, 1)
	out, err := ClassicalOutput(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 2 {
		t.Errorf("swap output = %02b, want 10", out)
	}
}

func TestCZPhase(t *testing.T) {
	// CZ on |11> flips sign: <+ on both after H> interference test.
	s := NewBasisState(2, 3)
	s.ApplyGate(circuit.NewGate(circuit.CZ, []int{0, 1}))
	if cmplx.Abs(s.amp[3]+1) > 1e-12 {
		t.Errorf("cz|11> = %v, want -1", s.amp[3])
	}
	s2 := NewBasisState(2, 1)
	s2.ApplyGate(circuit.NewGate(circuit.CZ, []int{0, 1}))
	if cmplx.Abs(s2.amp[1]-1) > 1e-12 {
		t.Error("cz|01> should be unchanged")
	}
}

func TestCPPhase(t *testing.T) {
	s := NewBasisState(2, 3)
	s.ApplyGate(circuit.NewGate(circuit.CP, []int{0, 1}, math.Pi/2))
	want := complex(0, 1)
	if cmplx.Abs(s.amp[3]-want) > 1e-12 {
		t.Errorf("cp(pi/2)|11> = %v, want i", s.amp[3])
	}
}

func TestMeasureErrors(t *testing.T) {
	s := NewState(1)
	if err := s.ApplyGate(circuit.NewGate(circuit.Measure, []int{0})); err == nil {
		t.Error("expected error applying measure")
	}
}

func TestBarrierIsIdentity(t *testing.T) {
	s := NewRandomState(2, 42)
	before := s.Copy()
	if err := s.ApplyGate(circuit.Gate{Name: circuit.Barrier, Qubits: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if s.Fidelity(before) < 1-1e-12 {
		t.Error("barrier changed the state")
	}
}

func TestRandomStateNormalized(t *testing.T) {
	s := NewRandomState(5, 7)
	var norm float64
	for i := uint64(0); i < 32; i++ {
		norm += s.Probability(i)
	}
	if math.Abs(norm-1) > 1e-12 {
		t.Errorf("norm = %v", norm)
	}
}

func TestUnitarityPreservesNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomUnitaryCircuit(rng, 4, 25)
		s := NewRandomState(4, seed)
		if err := s.ApplyCircuit(c); err != nil {
			return false
		}
		var norm float64
		for i := uint64(0); i < 16; i++ {
			norm += s.Probability(i)
		}
		return math.Abs(norm-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Circuit followed by its inverse returns to the input state.
func TestCircuitInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomUnitaryCircuit(rng, 4, 25)
		in := NewRandomState(4, seed+1)
		s := in.Copy()
		if err := s.ApplyCircuit(c); err != nil {
			return false
		}
		if err := s.ApplyCircuit(c.Inverse()); err != nil {
			return false
		}
		return s.Fidelity(in) > 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMeasureAllSamplesDistribution(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	s := NewState(1)
	s.ApplyCircuit(c)
	rng := rand.New(rand.NewSource(3))
	ones := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if s.MeasureAll(rng) == 1 {
			ones++
		}
	}
	if ones < 4500 || ones > 5500 {
		t.Errorf("sampled %d ones out of %d, expected ~5000", ones, n)
	}
}

func randomUnitaryCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.RX(rng.Float64()*6, rng.Intn(n))
		case 3:
			c.U3(rng.Float64()*3, rng.Float64()*6, rng.Float64()*6, rng.Intn(n))
		case 4:
			a, b := distinctPair(rng, n)
			c.CX(a, b)
		case 5:
			a, b := distinctPair(rng, n)
			c.CZ(a, b)
		case 6:
			a, b := distinctPair(rng, n)
			c.SWAP(a, b)
		case 7:
			if n >= 3 {
				p := rng.Perm(n)
				c.CCX(p[0], p[1], p[2])
			}
		}
	}
	return c
}

func distinctPair(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}
