// Full-scan simulation loops, kept verbatim from before the kernel rewrite
// as the reference legacy_test.go and kernels_equiv_test.go hold the
// branch-free kernels and the Monte-Carlo path to, bit for bit.

package sim

import (
	"fmt"
	"math"
	"math/rand"

	"trios/internal/circuit"
	"trios/internal/gatemat"
)

// legacyApply1q applies a 2x2 matrix to qubit q with the pre-kernel
// full-scan loop.
func (s *State) legacyApply1q(m gatemat.Mat2, q int) {
	bit := uint64(1) << uint(q)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = m[0]*a0 + m[1]*a1
		s.amp[j] = m[2]*a0 + m[3]*a1
	}
}

func (s *State) legacyApplyControlled1q(m gatemat.Mat2, controls []int, tgt int) {
	var cmask uint64
	for _, c := range controls {
		cmask |= 1 << uint(c)
	}
	bit := uint64(1) << uint(tgt)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&bit != 0 || i&cmask != cmask {
			continue
		}
		j := i | bit
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = m[0]*a0 + m[1]*a1
		s.amp[j] = m[2]*a0 + m[3]*a1
	}
}

func (s *State) legacyApplyPhase(phase complex128, qubits []int) {
	var mask uint64
	for _, q := range qubits {
		mask |= 1 << uint(q)
	}
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&mask == mask {
			s.amp[i] *= phase
		}
	}
}

func (s *State) legacyApplySwap(a, b int) {
	ba, bb := uint64(1)<<uint(a), uint64(1)<<uint(b)
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		if i&ba != 0 && i&bb == 0 {
			j := (i &^ ba) | bb
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
}

// LegacyApplyGate applies one unitary gate with the pre-kernel loops. The
// dispatch mirrors State.ApplyGate exactly.
func (s *State) LegacyApplyGate(g circuit.Gate) error {
	for _, q := range g.Qubits {
		if q < 0 || q >= s.n {
			return fmt.Errorf("sim: gate %v qubit %d outside [0,%d)", g.Name, q, s.n)
		}
	}
	switch g.Name {
	case circuit.Measure, circuit.Barrier:
		if g.Name == circuit.Barrier {
			return nil
		}
		return fmt.Errorf("sim: cannot apply %v as a unitary", g.Name)
	case circuit.CX:
		s.legacyApplyControlled1q(xMat, g.Qubits[:1], g.Qubits[1])
		return nil
	case circuit.CZ, circuit.CP:
		phase, _ := gatemat.PhaseOf(g.Name, g.Params)
		s.legacyApplyPhase(phase, g.Qubits)
		return nil
	case circuit.SWAP:
		s.legacyApplySwap(g.Qubits[0], g.Qubits[1])
		return nil
	case circuit.CCX:
		s.legacyApplyControlled1q(xMat, g.Qubits[:2], g.Qubits[2])
		return nil
	case circuit.RCCX, circuit.RCCXdg:
		return s.legacyApplyMargolus(g.Qubits[0], g.Qubits[1], g.Qubits[2])
	case circuit.CCZ:
		s.legacyApplyPhase(-1, g.Qubits)
		return nil
	case circuit.MCX:
		s.legacyApplyControlled1q(xMat, g.Controls(), g.Target())
		return nil
	default:
		m, err := gatemat.Single(g.Name, g.Params)
		if err != nil {
			return err
		}
		s.legacyApply1q(m, g.Qubits[0])
		return nil
	}
}

func (s *State) legacyApplyMargolus(c1, c2, t int) error {
	const a = math.Pi / 4
	ry := func(angle float64) error {
		m, err := gatemat.Single(circuit.RY, []float64{angle})
		if err != nil {
			return err
		}
		s.legacyApply1q(m, t)
		return nil
	}
	if err := ry(a); err != nil {
		return err
	}
	s.legacyApplyControlled1q(xMat, []int{c2}, t)
	if err := ry(a); err != nil {
		return err
	}
	s.legacyApplyControlled1q(xMat, []int{c1}, t)
	if err := ry(-a); err != nil {
		return err
	}
	s.legacyApplyControlled1q(xMat, []int{c2}, t)
	return ry(-a)
}

// LegacyApplyCircuit applies every gate of c with the pre-kernel loops.
func (s *State) LegacyApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits > s.n {
		return fmt.Errorf("sim: circuit needs %d qubits, state has %d", c.NumQubits, s.n)
	}
	for i := range c.Gates {
		if err := s.LegacyApplyGate(c.Gates[i]); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// MonteCarloSuccessLegacy is the pre-refactor Monte-Carlo loop, kept
// verbatim (serial, gate-at-a-time, legacy kernels, Measure gates skipped
// and expectMask compared as given). TestMonteCarloBitIdenticalToLegacy
// proves MonteCarloSuccess returns bit-identical results for every fixed
// seed.
func MonteCarloSuccessLegacy(c *circuit.Circuit, noise PauliNoise, expect, expectMask uint64, shots int, seed int64) (float64, error) {
	if c.NumQubits > 14 {
		return 0, fmt.Errorf("sim: monte carlo limited to 14 qubits, circuit has %d", c.NumQubits)
	}
	rng := rand.New(rand.NewSource(seed))
	successes := 0
	paulis := []circuit.Name{circuit.X, circuit.Y, circuit.Z}
	for shot := 0; shot < shots; shot++ {
		s := NewState(c.NumQubits)
		for i := range c.Gates {
			g := c.Gates[i]
			if g.Name == circuit.Measure || g.Name == circuit.Barrier {
				continue
			}
			if err := s.LegacyApplyGate(g); err != nil {
				return 0, fmt.Errorf("gate %d: %w", i, err)
			}
			p := noise.OneQubitError
			if len(g.Qubits) >= 2 {
				p = noise.TwoQubitError
			}
			for _, q := range g.Qubits {
				if rng.Float64() < p {
					pg := circuit.NewGate(paulis[rng.Intn(3)], []int{q})
					if err := s.LegacyApplyGate(pg); err != nil {
						return 0, err
					}
				}
			}
		}
		out := s.MeasureAll(rng)
		for q := 0; q < c.NumQubits; q++ {
			if rng.Float64() < noise.ReadoutError {
				out ^= 1 << uint(q)
			}
		}
		if out&expectMask == expect&expectMask {
			successes++
		}
	}
	return float64(successes) / float64(shots), nil
}
