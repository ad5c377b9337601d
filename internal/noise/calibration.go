// Calibration bridge: the closed-form success model evaluated directly on a
// device.Calibration, so estimation, scheduling, and routing all read the
// same data. This collapses the old split where sched.GateTimes, EdgeMap,
// and Params each carried a private copy of the hardware's characterization.
package noise

import (
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/device"
	"trios/internal/sched"
)

// SuccessWithCalibration is the closed-form success estimate of a compiled
// circuit under full per-qubit / per-edge calibration data: every CX is
// charged its own coupling's error rate (SWAPs as 3 uses), every one-qubit
// gate and measurement its own qubit's rate, and the decoherence term uses
// the ASAP makespan under the calibration's gate times — per-qubit with each
// qubit's own T1/T2 in CoherencePerQubit mode, device means in
// CoherenceProgram mode. The circuit must be compiled (1q/2q/measure on
// calibrated couplings only). It returns the success probability and the
// makespan in microseconds.
func SuccessWithCalibration(c *circuit.Circuit, cal *device.Calibration, mode CoherenceMode) (prob, makespan float64, err error) {
	if c.NumQubits > cal.Qubits {
		return 0, 0, fmt.Errorf("noise: circuit has %d qubits, calibration %s covers %d", c.NumQubits, cal.Name, cal.Qubits)
	}
	clock := sched.NewClock(c.NumQubits, cal.Times)
	logP := 0.0
	for i, g := range c.Gates {
		switch {
		case g.Name == circuit.Barrier:
		case g.Name == circuit.Measure:
			logP += math.Log(1 - cal.ReadoutError[g.Qubits[0]])
		case g.IsTwoQubit():
			e, err := cal.EdgeError(g.Qubits[0], g.Qubits[1])
			if err != nil {
				return 0, 0, fmt.Errorf("gate %d: %w", i, err)
			}
			uses := 1
			if g.Name == circuit.SWAP {
				uses = 3
			}
			logP += float64(float64(uses) * math.Log(1-e)) // rounded: no fused multiply-add
		case len(g.Qubits) == 1:
			logP += math.Log(1 - cal.OneQubitError[g.Qubits[0]])
		default:
			return 0, 0, fmt.Errorf("noise: gate %d (%v) not supported by the calibrated model; compile first", i, g.Name)
		}
		if err := clock.Add(g); err != nil {
			return 0, 0, fmt.Errorf("gate %d: %w", i, err)
		}
	}
	d := clock.Makespan()
	exponent := 0.0
	if mode == CoherencePerQubit {
		for q := 0; q < c.NumQubits; q++ {
			if clock.Active(q) {
				exponent += d/cal.T1[q] + d/cal.T2[q]
			}
		}
	} else {
		exponent = d/cal.MeanT1() + d/cal.MeanT2()
	}
	return math.Exp(logP - exponent), d, nil
}
