package sim

import (
	"fmt"
	"math/rand"

	"trios/internal/circuit"
)

// PauliNoise configures the Monte-Carlo error-injection simulator: after
// every gate, each operand qubit independently suffers a uniformly random
// non-identity Pauli (X, Y, or Z) with the per-gate error probability, and
// measured bits flip with the readout probability. This is a stronger,
// trajectory-level model than the paper's closed-form estimate — the
// closed-form counts *any* error event as failure, while here errors can
// commute through or cancel — so it upper-bounds the closed form and is used
// in tests to validate it.
type PauliNoise struct {
	OneQubitError float64
	TwoQubitError float64
	ReadoutError  float64
}

// measurementMask scans a circuit's Measure gates and returns the mask of
// measured qubits. Every Measure must be terminal: a unitary gate acting on
// an already-measured qubit is a mid-circuit measurement, which the
// trajectory simulators do not model (no classical feed-forward, no
// collapse), so it is rejected explicitly rather than silently skipped.
func measurementMask(c *circuit.Circuit) (mask uint64, err error) {
	for i, g := range c.Gates {
		switch g.Name {
		case circuit.Measure:
			mask |= 1 << uint(g.Qubits[0])
		case circuit.Barrier:
		default:
			for _, q := range g.Qubits {
				if mask&(1<<uint(q)) != 0 {
					return 0, fmt.Errorf("sim: gate %d (%v) acts on qubit %d after it was measured; mid-circuit measurement is not supported", i, g.Name, q)
				}
			}
		}
	}
	return mask, nil
}

// compareMask resolves which qubits a Monte-Carlo run compares: the
// caller's expectMask, restricted to the measured subset when the circuit
// contains Measure gates (a circuit without Measure gates is treated as
// measuring every qubit). Mid-circuit measurement is an error.
func compareMask(c *circuit.Circuit, expectMask uint64) (uint64, error) {
	measured, err := measurementMask(c)
	if err != nil {
		return 0, err
	}
	if measured != 0 {
		return expectMask & measured, nil
	}
	return expectMask, nil
}

// MonteCarloSuccess runs the circuit `shots` times under Pauli noise and
// returns the fraction of runs whose measured output equals `expect` on the
// compared qubits. expectMask selects which qubits are compared (use
// ^uint64(0) for all); when the circuit contains Measure gates the
// comparison is further restricted to the measured subset, and a Measure
// followed by more gates on the same qubit is rejected (mid-circuit
// measurement is not modeled).
//
// This is the serial path: one RNG drives every shot in order. The RNG
// stream is unchanged from the pre-engine implementation, so for any fixed
// seed the results are bit-identical whenever the compared qubit set is
// unchanged — circuits without Measure gates, or with every compared qubit
// measured (a test holds it to the pre-engine loop, kept as a test
// reference). Partially-measured
// circuits whose expectMask covered unmeasured qubits previously compared
// those qubits too; that was the documented-vs-actual mismatch this
// restriction deliberately fixes. Engine.MonteCarlo runs the same model
// across a worker pool with per-shot seeds, lifts the qubit cap, and
// auto-dispatches Clifford circuits to the stabilizer backend.
func MonteCarloSuccess(c *circuit.Circuit, noise PauliNoise, expect, expectMask uint64, shots int, seed int64) (float64, error) {
	if c.NumQubits > 14 {
		return 0, fmt.Errorf("sim: monte carlo limited to 14 qubits, circuit has %d", c.NumQubits)
	}
	cmpMask, err := compareMask(c, expectMask)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	successes := 0
	paulis := []circuit.Name{circuit.X, circuit.Y, circuit.Z}
	s := NewState(c.NumQubits)
	for shot := 0; shot < shots; shot++ {
		s.Reset()
		for i := range c.Gates {
			g := c.Gates[i]
			if g.Name == circuit.Measure || g.Name == circuit.Barrier {
				continue
			}
			if err := s.ApplyGate(g); err != nil {
				return 0, fmt.Errorf("gate %d: %w", i, err)
			}
			p := noise.OneQubitError
			if len(g.Qubits) >= 2 {
				p = noise.TwoQubitError
			}
			for _, q := range g.Qubits {
				if rng.Float64() < p {
					pg := circuit.NewGate(paulis[rng.Intn(3)], []int{q})
					if err := s.ApplyGate(pg); err != nil {
						return 0, err
					}
				}
			}
		}
		out := s.MeasureAll(rng)
		// Readout flips. The loop covers every qubit (not just measured
		// ones) to keep the pre-engine RNG stream; flips outside cmpMask
		// cannot affect the comparison.
		for q := 0; q < c.NumQubits; q++ {
			if rng.Float64() < noise.ReadoutError {
				out ^= 1 << uint(q)
			}
		}
		if out&cmpMask == expect&cmpMask {
			successes++
		}
	}
	return float64(successes) / float64(shots), nil
}
