// Package noise implements the paper's simplified error model (§2.6): a
// compiled program succeeds if no gate error occurs — probability
// prod_g (1 - e_g) — and no coherence error occurs — probability
// exp(-D/T1 - D/T2) for program duration D. It also provides the IBM
// Johannesburg calibration constants the paper uses and the error-scaling
// knob behind the Fig. 12 sensitivity sweep.
package noise

import (
	"fmt"
	"math"
	"math/rand"

	"trios/internal/circuit"
	"trios/internal/sched"
)

// CoherenceMode selects how the decoherence term aggregates over qubits.
type CoherenceMode int

const (
	// CoherenceProgram applies exp(-D/T1 - D/T2) once for the whole program
	// (the literal reading of the paper's §2.6 formula).
	CoherenceProgram CoherenceMode = iota
	// CoherencePerQubit applies the factor once per active qubit — every
	// qubit idles or works for the full makespan D, so the joint
	// no-decoherence probability is exp(-D/T1 - D/T2)^q. This matches the
	// paper's "idle errors" phrasing and the near-zero baseline success
	// levels its Figures 9 and 11 exhibit.
	CoherencePerQubit
)

// Params is a device noise model.
type Params struct {
	// T1 and T2 are relaxation and dephasing times in microseconds.
	T1, T2 float64
	// Coherence selects program-level or per-qubit decoherence accounting.
	Coherence CoherenceMode
	// Gate durations in microseconds.
	Times sched.GateTimes
	// Per-gate error probabilities.
	OneQubitError float64
	TwoQubitError float64
	// ReadoutError is the per-measurement misread probability. The paper's
	// analytic model covers gates and coherence; readout is included so the
	// Toffoli-experiment reproduction (which measures three qubits) shows
	// the same sub-65% ceiling the real-hardware Fig. 6 exhibits.
	ReadoutError float64
}

// Johannesburg0819 returns the calibration values the paper reports for IBM
// Johannesburg from 8/19/2020 (§5.2): average T1 70.87 us, T2 72.72 us,
// two-qubit gate error 0.0147, one-qubit gate error 0.0004. Readout error is
// set to 0.03, representative of that device generation ("on the same order
// of magnitude as CNOT gates", §2.3).
func Johannesburg0819() Params {
	return Params{
		T1:            70.87,
		T2:            72.72,
		Times:         sched.JohannesburgTimes(),
		OneQubitError: 0.0004,
		TwoQubitError: 0.0147,
		ReadoutError:  0.03,
	}
}

// Improved returns the model with gate and readout errors divided by factor
// and coherence times multiplied by it — the paper's "20x improved" forward-
// looking setting (§5.2) and the x-axis of the Fig. 12 sensitivity sweep.
func (p Params) Improved(factor float64) Params {
	if factor <= 0 {
		panic("noise: improvement factor must be positive")
	}
	q := p
	q.T1 *= factor
	q.T2 *= factor
	q.OneQubitError /= factor
	q.TwoQubitError /= factor
	q.ReadoutError /= factor
	return q
}

// SuccessProbability returns the paper's closed-form estimate of the chance
// a single execution of the compiled circuit returns the correct answer:
//
//	(1-e1)^n1 * (1-e2)^n2 * (1-er)^nmeas * exp(-D/T1 - D/T2)
//
// where D is the ASAP makespan under the model's gate times. SWAPs count as
// 3 two-qubit gates, CCX/CCZ as 8 two-qubit and 4 one-qubit gates (their
// linear decomposition) and RCCX as 3 and 4, so that estimates of
// partially-lowered circuits stay comparable.
func SuccessProbability(c *circuit.Circuit, p Params) (float64, error) {
	if p.T1 <= 0 || p.T2 <= 0 {
		return 0, fmt.Errorf("noise: non-positive coherence time")
	}
	clock := sched.NewClock(c.NumQubits, p.Times)
	oneQ, twoQ, meas := 0, 0, 0
	for i, g := range c.Gates {
		if err := clock.Add(g); err != nil {
			return 0, fmt.Errorf("gate %d: %w", i, err)
		}
		switch {
		case g.Name == circuit.Barrier:
		case g.Name == circuit.Measure:
			meas++
		case g.Name == circuit.SWAP:
			twoQ += 3
		case g.Name == circuit.CCX || g.Name == circuit.CCZ:
			twoQ += 8
			oneQ += 4
		case g.Name == circuit.RCCX || g.Name == circuit.RCCXdg:
			twoQ += 3
			oneQ += 4
		case g.IsTwoQubit():
			twoQ++
		case len(g.Qubits) == 1:
			oneQ++
		}
	}
	d := clock.Makespan()
	pGate := math.Pow(1-p.OneQubitError, float64(oneQ)) *
		math.Pow(1-p.TwoQubitError, float64(twoQ)) *
		math.Pow(1-p.ReadoutError, float64(meas))
	exponent := d/p.T1 + d/p.T2
	if p.Coherence == CoherencePerQubit {
		exponent *= float64(activeQubits(clock, c.NumQubits))
	}
	return pGate * math.Exp(-exponent), nil
}

// activeQubits counts the qubits of an n-qubit schedule that a non-barrier
// gate touched.
func activeQubits(clock *sched.Clock, n int) int {
	active := 0
	for q := 0; q < n; q++ {
		if clock.Active(q) {
			active++
		}
	}
	return active
}

// SampleSuccesses draws a shot count of Bernoulli trials at the analytic
// success probability, emulating the shot noise of a real experiment (the
// paper runs 8192 trials per Toffoli configuration). It substitutes for the
// real IBM Johannesburg backend: the distribution of "correct bitstring
// observed" is binomial with the model's success rate.
func SampleSuccesses(c *circuit.Circuit, p Params, shots int, rng *rand.Rand) (successes int, prob float64, err error) {
	prob, err = SuccessProbability(c, p)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < shots; i++ {
		if rng.Float64() < prob {
			successes++
		}
	}
	return successes, prob, nil
}
