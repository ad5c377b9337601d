package noise

import (
	"math"
	"math/rand"
	"testing"

	"trios/internal/circuit"
)

func TestJohannesburgConstants(t *testing.T) {
	p := Johannesburg0819()
	if p.T1 != 70.87 || p.T2 != 72.72 {
		t.Errorf("coherence constants wrong: %+v", p)
	}
	if p.TwoQubitError != 0.0147 || p.OneQubitError != 0.0004 {
		t.Errorf("error constants wrong: %+v", p)
	}
}

func TestImprovedScalesEverything(t *testing.T) {
	p := Johannesburg0819().Improved(20)
	if math.Abs(p.TwoQubitError-0.0147/20) > 1e-15 {
		t.Errorf("two-qubit error = %v", p.TwoQubitError)
	}
	if math.Abs(p.T1-70.87*20) > 1e-9 {
		t.Errorf("T1 = %v", p.T1)
	}
}

func TestImprovedRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Johannesburg0819().Improved(0)
}

func TestCountSwapAndToffoliExpansion(t *testing.T) {
	c := circuit.New(3)
	c.H(0).CX(0, 1).SWAP(1, 2).CCX(0, 1, 2).Measure(0)
	// Without decoherence and with one error rate at 1/2, the estimate is
	// exactly 2^-n for the number n of operations of that kind.
	count := func(p Params) float64 {
		t.Helper()
		p.T1, p.T2 = math.Inf(1), math.Inf(1)
		prob, err := SuccessProbability(c, p)
		if err != nil {
			t.Fatal(err)
		}
		return -math.Log2(prob)
	}
	if n := count(Params{TwoQubitError: 0.5}); n != 1+3+8 {
		t.Errorf("two-qubit = %v, want 12", n)
	}
	if n := count(Params{OneQubitError: 0.5}); n != 1+4 {
		t.Errorf("one-qubit = %v, want 5", n)
	}
	if n := count(Params{ReadoutError: 0.5}); n != 1 {
		t.Errorf("measures = %v, want 1", n)
	}
}

func TestSuccessProbabilityEmptyCircuit(t *testing.T) {
	c := circuit.New(2)
	p, err := SuccessProbability(c, Johannesburg0819())
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("empty circuit success = %v, want 1", p)
	}
}

func TestSuccessProbabilityMonotoneInGateCount(t *testing.T) {
	model := Johannesburg0819()
	short := circuit.New(2)
	short.CX(0, 1)
	long := circuit.New(2)
	for i := 0; i < 20; i++ {
		long.CX(0, 1)
	}
	ps, _ := SuccessProbability(short, model)
	pl, _ := SuccessProbability(long, model)
	if pl >= ps {
		t.Errorf("longer circuit should fail more: %v vs %v", ps, pl)
	}
	if ps <= 0 || ps >= 1 {
		t.Errorf("success probability out of range: %v", ps)
	}
}

func TestSuccessProbabilityClosedForm(t *testing.T) {
	// One CX: p = (1-e2) * exp(-d/T1 - d/T2) with d = twoQubitTime.
	model := Johannesburg0819()
	model.ReadoutError = 0
	c := circuit.New(2)
	c.CX(0, 1)
	got, err := SuccessProbability(c, model)
	if err != nil {
		t.Fatal(err)
	}
	d := model.Times.TwoQubit
	want := (1 - model.TwoQubitError) * math.Exp(-d/model.T1-d/model.T2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("success = %v, want %v", got, want)
	}
}

func TestReadoutErrorApplied(t *testing.T) {
	model := Johannesburg0819()
	c := circuit.New(1)
	c.Measure(0)
	withRead, _ := SuccessProbability(c, model)
	model.ReadoutError = 0
	noRead, _ := SuccessProbability(c, model)
	if withRead >= noRead {
		t.Errorf("readout error should lower success: %v vs %v", withRead, noRead)
	}
}

func TestImprovementRaisesSuccess(t *testing.T) {
	c := circuit.New(2)
	for i := 0; i < 50; i++ {
		c.CX(0, 1)
	}
	base, _ := SuccessProbability(c, Johannesburg0819())
	better, _ := SuccessProbability(c, Johannesburg0819().Improved(20))
	if better <= base {
		t.Errorf("20x improvement should raise success: %v vs %v", base, better)
	}
}

func TestSampleSuccessesNearProbability(t *testing.T) {
	c := circuit.New(2)
	for i := 0; i < 10; i++ {
		c.CX(0, 1)
	}
	rng := rand.New(rand.NewSource(2))
	succ, prob, err := SampleSuccesses(c, Johannesburg0819(), 8192, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(succ) / 8192
	if math.Abs(got-prob) > 0.03 {
		t.Errorf("sampled %v, analytic %v", got, prob)
	}
}

func TestSuccessProbabilityBadCoherence(t *testing.T) {
	c := circuit.New(1)
	if _, err := SuccessProbability(c, Params{T1: 0, T2: 1}); err == nil {
		t.Error("expected error for zero T1")
	}
}
