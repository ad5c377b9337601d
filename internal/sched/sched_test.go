package sched

import (
	"math"
	"testing"

	"trios/internal/circuit"
)

var unit = GateTimes{OneQubit: 1, TwoQubit: 10, Measure: 100}

// makespans feeds c to a clock gate by gate and returns the makespan after
// each gate: a gate that ends last shows its start as that makespan minus
// its duration.
func makespans(t *testing.T, c *circuit.Circuit) ([]float64, *Clock) {
	t.Helper()
	k := NewClock(c.NumQubits, unit)
	var ms []float64
	for _, g := range c.Gates {
		if err := k.Add(g); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, k.Makespan())
	}
	return ms, k
}

func checkMakespans(t *testing.T, got, want []float64) {
	t.Helper()
	for i, w := range want {
		if got[i] != w {
			t.Errorf("makespan after gate %d = %v, want %v", i, got[i], w)
		}
	}
}

func TestASAPSequentialGates(t *testing.T) {
	c := circuit.New(1)
	c.H(0).T(0).H(0)
	ms, _ := makespans(t, c)
	checkMakespans(t, ms, []float64{1, 2, 3}) // starts 0, 1, 2
}

func TestASAPParallelGates(t *testing.T) {
	c := circuit.New(2)
	c.H(0).H(1)
	ms, _ := makespans(t, c)
	checkMakespans(t, ms, []float64{1, 1}) // independent gates start together
}

func TestASAPTwoQubitDependency(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CX(0, 1).H(1)
	ms, _ := makespans(t, c)
	checkMakespans(t, ms, []float64{1, 11, 12}) // cx starts at 1, h(1) at 11
}

func TestASAPBarrierSynchronizes(t *testing.T) {
	c := circuit.New(3)
	c.H(0).Barrier().H(1)
	ms, k := makespans(t, c)
	// h(1) cannot start before the barrier, which waits for h(0).
	checkMakespans(t, ms, []float64{1, 1, 2})
	// The barrier synchronized qubit 2 but did no work on it.
	for q, want := range []bool{true, true, false} {
		if k.Active(q) != want {
			t.Errorf("Active(%d) = %v, want %v", q, k.Active(q), want)
		}
	}
}

func TestSwapAndToffoliDurations(t *testing.T) {
	c := circuit.New(3)
	c.SWAP(0, 1)
	k, err := Run(c, unit)
	if err != nil {
		t.Fatal(err)
	}
	if k.Makespan() != 30 {
		t.Errorf("swap duration = %v, want 30", k.Makespan())
	}
	c2 := circuit.New(3)
	c2.CCX(0, 1, 2)
	k2, _ := Run(c2, unit)
	if k2.Makespan() != 84 { // 8*10 + 4*1
		t.Errorf("ccx duration = %v, want 84", k2.Makespan())
	}
}

func TestMeasureDuration(t *testing.T) {
	c := circuit.New(1)
	c.H(0).Measure(0)
	k, _ := Run(c, unit)
	if k.Makespan() != 101 {
		t.Errorf("duration = %v, want 101", k.Makespan())
	}
}

func TestMCXRejected(t *testing.T) {
	c := circuit.New(4)
	c.H(0)
	c.MCX([]int{0, 1, 2}, 3)
	_, err := Run(c, unit)
	if err == nil || err.Error() != "gate 1: sched: cannot time an undecomposed mcx" {
		t.Errorf("err = %v, want the mcx error at gate 1", err)
	}
}

func TestJohannesburgTimes(t *testing.T) {
	gt := JohannesburgTimes()
	if math.Abs(gt.TwoQubit-0.559) > 1e-12 || math.Abs(gt.OneQubit-0.07) > 1e-12 {
		t.Errorf("johannesburg times wrong: %+v", gt)
	}
}

func TestDurationMatchesDepthTimesGateTimeOnSerialCircuit(t *testing.T) {
	c := circuit.New(2)
	for i := 0; i < 7; i++ {
		c.CX(0, 1)
	}
	k, _ := Run(c, unit)
	if k.Makespan() != 70 {
		t.Errorf("duration = %v, want 70", k.Makespan())
	}
}
