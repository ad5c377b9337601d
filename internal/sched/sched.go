// Package sched computes ASAP (as-soon-as-possible) schedules for compiled
// circuits: per-gate start times and the total program duration, which feeds
// the decoherence term of the paper's success-probability model (§2.6).
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
		return 8*t.TwoQubit + 4*t.OneQubit, nil
	case circuit.RCCX, circuit.RCCXdg:
		return 3*t.TwoQubit + 4*t.OneQubit, nil
	case circuit.MCX:
		return 0, fmt.Errorf("sched: cannot time an undecomposed mcx")
	default:
		if g.IsTwoQubit() {
			return t.TwoQubit, nil
		}
		return t.OneQubit, nil
	}
}

// Schedule is an ASAP timing of a circuit.
type Schedule struct {
	// Start[i] is the start time (us) of gate i; barriers get their sync time.
	Start []float64
	// TotalDuration is the makespan in microseconds.
	TotalDuration float64
	// CriticalPathGates is the number of gates on one longest dependency
	// chain (by duration).
	CriticalPathGates int
}

// ASAP schedules every gate at the earliest time all its qubits are free.
// Barriers synchronize their qubits at zero duration.
func ASAP(c *circuit.Circuit, times GateTimes) (*Schedule, error) {
	avail := make([]float64, c.NumQubits)
	chain := make([]int, c.NumQubits) // gates on the critical chain per qubit
	s := &Schedule{Start: make([]float64, len(c.Gates))}
	maxChain := 0
	for i, g := range c.Gates {
		start := 0.0
		depth := 0
		for _, q := range g.Qubits {
			if avail[q] > start {
				start = avail[q]
			}
			if chain[q] > depth {
				depth = chain[q]
			}
		}
		d, err := times.Duration(g)
		if err != nil {
			return nil, fmt.Errorf("gate %d: %w", i, err)
		}
		s.Start[i] = start
		end := start + d
		if g.Name != circuit.Barrier {
			depth++
		}
		for _, q := range g.Qubits {
			avail[q] = end
			chain[q] = depth
		}
		if end > s.TotalDuration {
			s.TotalDuration = end
		}
		if depth > maxChain {
			maxChain = depth
		}
	}
	s.CriticalPathGates = maxChain
	return s, nil
}

// Duration is a convenience wrapper returning only the makespan.
func Duration(c *circuit.Circuit, times GateTimes) (float64, error) {
	s, err := ASAP(c, times)
	if err != nil {
		return 0, err
	}
	return s.TotalDuration, nil
}
