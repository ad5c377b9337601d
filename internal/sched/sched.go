// Package sched computes ASAP (as-soon-as-possible) schedules for compiled
// circuits: the makespan of a program, which feeds the decoherence term of
// the paper's success-probability model (§2.6).
package sched

import (
	"fmt"

	"trios/internal/circuit"
)

// GateTimes gives operation durations in microseconds.
type GateTimes struct {
	OneQubit float64
	TwoQubit float64
	Measure  float64
}

// JohannesburgTimes are the calibration values the paper reports for IBM
// Johannesburg on 8/19/2020: two-qubit gates 0.559 us, one-qubit 0.07 us.
// The measure time is a representative readout duration for that device
// generation.
func JohannesburgTimes() GateTimes {
	return GateTimes{OneQubit: 0.07, TwoQubit: 0.559, Measure: 3.5}
}

// Duration returns the duration of one gate. SWAPs count as 3 two-qubit
// gates and Toffolis as their 8-CNOT expansion plus single-qubit dressing,
// so schedules of partially-lowered circuits remain meaningful; fully
// compiled circuits only contain 1q/2q/measure operations.
func (t GateTimes) Duration(g circuit.Gate) (float64, error) {
	switch g.Name {
	case circuit.Barrier:
		return 0, nil
	case circuit.Measure:
		return t.Measure, nil
	case circuit.SWAP:
		return 3 * t.TwoQubit, nil
	case circuit.CCX, circuit.CCZ:
		return float64(8*t.TwoQubit) + float64(4*t.OneQubit), nil // rounded: no fused multiply-add
	case circuit.RCCX, circuit.RCCXdg:
		return float64(3*t.TwoQubit) + float64(4*t.OneQubit), nil // rounded: no fused multiply-add
	case circuit.MCX:
		return 0, fmt.Errorf("sched: cannot time an undecomposed mcx")
	default:
		if g.IsTwoQubit() {
			return t.TwoQubit, nil
		}
		return t.OneQubit, nil
	}
}

// Clock is an ASAP schedule fed one gate at a time: each gate starts at the
// earliest time all its qubits are free, and barriers synchronize their
// qubits at zero duration. It holds per-qubit state and the makespan only,
// so a stream can schedule a program of any length window by window.
type Clock struct {
	times    GateTimes
	free     []float64 // when each qubit is next free (us)
	active   []bool    // touched by a non-barrier gate
	makespan float64
}

// NewClock returns an empty schedule over n qubits under times.
func NewClock(n int, times GateTimes) *Clock {
	return &Clock{times: times, free: make([]float64, n), active: make([]bool, n)}
}

// Add schedules g after every gate added before it.
func (k *Clock) Add(g circuit.Gate) error {
	d, err := k.times.Duration(g)
	if err != nil {
		return err
	}
	start := 0.0
	for _, q := range g.Qubits {
		if k.free[q] > start {
			start = k.free[q]
		}
	}
	end := start + d
	for _, q := range g.Qubits {
		k.free[q] = end
		if g.Name != circuit.Barrier {
			k.active[q] = true
		}
	}
	if end > k.makespan {
		k.makespan = end
	}
	return nil
}

// Makespan is the time (us) at which the last gate added so far ends.
func (k *Clock) Makespan() float64 { return k.makespan }

// Active reports whether a non-barrier gate has touched qubit q.
func (k *Clock) Active(q int) bool { return k.active[q] }

// Run schedules every gate of c; an error names the index of the gate that
// could not be timed.
func Run(c *circuit.Circuit, times GateTimes) (*Clock, error) {
	k := NewClock(c.NumQubits, times)
	for i, g := range c.Gates {
		if err := k.Add(g); err != nil {
			return nil, fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return k, nil
}
