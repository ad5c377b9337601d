package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/stab"
)

// randomCliffordCircuit builds a random Clifford circuit from the gate set
// the classifier recognizes.
func randomCliffordCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(7) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.S(rng.Intn(n))
		case 2:
			c.X(rng.Intn(n))
		case 3:
			c.SX(rng.Intn(n))
		case 4:
			c.RZ(float64(rng.Intn(4))*math.Pi/2, rng.Intn(n))
		case 5:
			a, b := distinctPair(rng, n)
			c.CX(a, b)
		case 6:
			a, b := distinctPair(rng, n)
			c.CZ(a, b)
		}
	}
	return c
}

func TestEngineDispatchesCliffordToStabilizer(t *testing.T) {
	e := &Engine{}
	a := circuit.New(3)
	a.H(0).CX(0, 1).S(2).Measure(0).Measure(1)
	b := a.Copy()
	v, err := e.Verify(a, b, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equivalent || v.Backend != "stabilizer" {
		t.Errorf("verdict = %+v, want equivalent via stabilizer", v)
	}

	// One T gate forces the dense backend.
	nb := b.Copy()
	nb.T(0)
	na := a.Copy()
	na.T(0)
	v, err = e.Verify(na, nb, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equivalent || v.Backend != "dense" {
		t.Errorf("verdict = %+v, want equivalent via dense", v)
	}
}

// TestEngineVerifyCliffordAgreesWithDense is the cross-backend agreement
// property for equivalence verdicts: on random Clifford circuit pairs —
// both equivalent rewrites and deliberate mutations — the stabilizer
// verdict must match the dense backend's.
func TestEngineVerifyCliffordAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		a := randomCliffordCircuit(rng, n, 15)
		var b *circuit.Circuit
		if trial%2 == 0 {
			// Equivalent rewrite: CZ conjugated into CX by H on the target.
			b = circuit.New(n)
			for _, g := range a.Gates {
				if g.Name == circuit.CX {
					b.H(g.Qubits[1])
					b.CZ(g.Qubits[0], g.Qubits[1])
					b.H(g.Qubits[1])
				} else {
					b.Append(g)
				}
			}
		} else {
			// Mutation: append a random non-identity Clifford gate.
			b = a.Copy()
			switch rng.Intn(3) {
			case 0:
				b.S(rng.Intn(n))
			case 1:
				b.X(rng.Intn(n))
			case 2:
				b.H(rng.Intn(n))
			}
		}
		e := &Engine{}
		v, err := e.Verify(a, b, 5, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if v.Backend != "stabilizer" {
			t.Fatalf("trial %d: expected stabilizer dispatch, got %s", trial, v.Backend)
		}
		dense, err := Equivalent(a, b, 5, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if v.Equivalent != dense {
			t.Errorf("trial %d: stabilizer verdict %v, dense verdict %v", trial, v.Equivalent, dense)
		}
	}
}

// TestVerifyCompiledStabilizerMatchesDense replays the SWAP-permutation
// compiled-equivalence cases on both backends.
func TestVerifyCompiledStabilizerMatchesDense(t *testing.T) {
	src := circuit.New(2)
	src.CX(0, 1)
	phys := circuit.New(3)
	phys.SWAP(0, 2)
	phys.CX(2, 1)

	for _, tc := range []struct {
		name  string
		final []int
		want  bool
	}{
		{"correct final layout", []int{2, 1}, true},
		{"wrong final layout", []int{0, 1}, false},
	} {
		e := &Engine{}
		v, err := e.VerifyCompiled(src, phys, 3, []int{0, 1}, tc.final, 4, 6)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v.Backend != "stabilizer" {
			t.Fatalf("%s: expected stabilizer dispatch, got %s", tc.name, v.Backend)
		}
		if v.Equivalent != tc.want {
			t.Errorf("%s: stabilizer verdict %v, want %v", tc.name, v.Equivalent, tc.want)
		}
		dense, err := CompiledEquivalent(src, phys, 3, []int{0, 1}, tc.final, 4, 6)
		if err != nil {
			t.Fatal(err)
		}
		if dense != tc.want {
			t.Errorf("%s: dense verdict %v, want %v", tc.name, dense, tc.want)
		}
	}
}

// denseMarginal computes P(qubit q = 1) from the statevector.
func denseMarginal(s *State, q int) float64 {
	var p float64
	bit := uint64(1) << uint(q)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&bit != 0 {
			p += s.Probability(i)
		}
	}
	return p
}

// TestCrossBackendOutcomeProbabilities is the satellite agreement property:
// on random Clifford circuits the stabilizer and dense backends must agree
// on measurement outcome probabilities. Stabilizer marginals are exactly 0,
// 1 (deterministic) or 1/2 (random); the dense marginal must match to
// float precision.
func TestCrossBackendOutcomeProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		c := randomCliffordCircuit(rng, n, 20)
		dense := NewState(n)
		if err := dense.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		tab := stab.NewState(n)
		if err := tab.ApplyCircuit(c); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < n; q++ {
			scratch := tab.Copy()
			outcome, deterministic := scratch.MeasureZ(q, rng)
			got := denseMarginal(dense, q)
			want := 0.5
			if deterministic {
				want = float64(outcome)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("trial %d qubit %d: dense marginal %v, stabilizer says %v (deterministic=%v)",
					trial, q, got, want, deterministic)
			}
		}
	}
}

// TestCrossBackendDeterministicResults: circuits with classical Clifford
// content produce the same deterministic measured bitstring on both
// backends, and it matches the bitwise classical propagation.
func TestCrossBackendDeterministicResults(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		c := circuit.New(n)
		for i := 0; i < 15; i++ {
			switch rng.Intn(3) {
			case 0:
				c.X(rng.Intn(n))
			case 1:
				a, b := distinctPair(rng, n)
				c.CX(a, b)
			case 2:
				a, b := distinctPair(rng, n)
				c.SWAP(a, b)
			}
		}
		want, err := ClassicalRun(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []Backend{DenseBackend{}, StabilizerBackend{}} {
			st, err := backend.Prepare(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range c.Gates {
				if err := st.Apply(g); err != nil {
					t.Fatal(err)
				}
			}
			got := st.MeasureAll(rand.New(rand.NewSource(int64(trial))))
			if got != want {
				t.Errorf("trial %d: %s measured %b, classical run %b", trial, backend.Name(), got, want)
			}
		}
	}
}

func TestBackendFidelity(t *testing.T) {
	d1, _ := DenseBackend{}.Prepare(2)
	d2, _ := DenseBackend{}.Prepare(2)
	if f, err := d1.Fidelity(d2); err != nil || math.Abs(f-1) > 1e-12 {
		t.Errorf("dense |00> fidelity = %v, %v", f, err)
	}
	s1, _ := StabilizerBackend{}.Prepare(2)
	s2, _ := StabilizerBackend{}.Prepare(2)
	if err := s2.Apply(circuit.NewGate(circuit.X, []int{0})); err != nil {
		t.Fatal(err)
	}
	if f, err := s1.Fidelity(s2); err != nil || f != 0 {
		t.Errorf("stabilizer |00> vs |01> fidelity = %v, %v, want 0", f, err)
	}
	if _, err := d1.Fidelity(s1); err == nil {
		t.Error("cross-backend fidelity should error")
	}
}

func TestRandomStabilizerPrepIsClifford(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		p := randomStabilizerPrep(1+rng.Intn(6), rng)
		if !circuit.IsClifford(p) {
			t.Fatalf("prep circuit not Clifford:\n%v", p)
		}
	}
}

// Verify reports whether two circuits on the same qubit count implement the
// same unitary up to global phase, dispatching Clifford pairs to the
// stabilizer backend (checked on `trials` random stabilizer inputs) and
// everything else to the dense backend (`trials` random statevectors).
// Measure and Barrier gates are stripped before checking.
func (e *Engine) Verify(a, b *circuit.Circuit, trials int, seed int64) (Verdict, error) {
	if a.NumQubits != b.NumQubits {
		return Verdict{}, fmt.Errorf("sim: qubit count mismatch %d vs %d", a.NumQubits, b.NumQubits)
	}
	sa, sb := a.StripPseudo(), b.StripPseudo()
	stabBE := StabilizerBackend{}
	if stabBE.Supports(sa) && stabBE.Supports(sb) {
		rng := rand.New(rand.NewSource(seed))
		for t := 0; t < trials; t++ {
			prep := randomStabilizerPrep(a.NumQubits, rng)
			ra := stab.NewState(a.NumQubits)
			rb := stab.NewState(a.NumQubits)
			for _, s := range []*stab.State{ra, rb} {
				if err := s.ApplyCircuit(prep); err != nil {
					return Verdict{}, fmt.Errorf("sim: stabilizer prep: %w", err)
				}
			}
			if err := ra.ApplyCircuit(sa); err != nil {
				return Verdict{}, fmt.Errorf("sim: circuit a: %w", err)
			}
			if err := rb.ApplyCircuit(sb); err != nil {
				return Verdict{}, fmt.Errorf("sim: circuit b: %w", err)
			}
			if !ra.Equal(rb) {
				return Verdict{Backend: "stabilizer"}, nil
			}
		}
		return Verdict{Equivalent: true, Backend: "stabilizer"}, nil
	}

	ok, err := e.denseEquivalent(sa, sb, trials, seed)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Equivalent: ok, Backend: "dense"}, nil
}
