// Package sim is a statevector simulator for the circuit IR. It supports
// every unitary gate in the IR (including CCX and MCX before decomposition)
// and is used to verify that compiled circuits are semantically equivalent
// to their sources, and to estimate success probabilities for the paper's
// Toffoli experiments.
//
// Qubit i corresponds to bit i of the basis-state index (little-endian):
// basis state |q_{n-1} ... q_1 q_0> has index sum q_i << i.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"trios/internal/circuit"
	"trios/internal/gatemat"
)

// MaxQubits bounds statevector size (2^24 amplitudes = 256 MiB) to fail fast
// on circuits too large to simulate rather than exhausting memory.
const MaxQubits = 24

// State is an n-qubit pure state.
type State struct {
	n   int
	amp []complex128
}

// NewState returns |0...0> on n qubits.
func NewState(n int) *State {
	if n < 0 || n > MaxQubits {
		panic(fmt.Sprintf("sim: qubit count %d outside [0,%d]", n, MaxQubits))
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s
}

// NewBasisState returns the computational basis state with the given index.
func NewBasisState(n int, index uint64) *State {
	s := NewState(n)
	if index >= 1<<uint(n) {
		panic(fmt.Sprintf("sim: basis index %d outside 2^%d", index, n))
	}
	s.amp[0] = 0
	s.amp[index] = 1
	return s
}

// NewRandomState returns a Haar-ish random state (normalized complex
// Gaussian amplitudes) from the given seed, used by equivalence tests.
func NewRandomState(n int, seed int64) *State {
	s := NewState(n)
	rng := rand.New(rand.NewSource(seed))
	var norm float64
	for i := range s.amp {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		s.amp[i] = complex(re, im)
		norm += re*re + im*im
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.amp {
		s.amp[i] *= scale
	}
	return s
}

// NumQubits returns the number of qubits in the state.
func (s *State) NumQubits() int { return s.n }

// Reset returns the state to |0...0> in place, reusing the amplitude
// buffer. Trajectory workers reuse one state across thousands of shots, so
// the per-shot cost is a memclr instead of an allocation.
func (s *State) Reset() {
	clear(s.amp)
	s.amp[0] = 1
}

// Copy returns a deep copy of the state.
func (s *State) Copy() *State {
	c := &State{n: s.n, amp: make([]complex128, len(s.amp))}
	copy(c.amp, s.amp)
	return c
}

// Probability returns |amplitude|^2 of the given basis state.
func (s *State) Probability(index uint64) float64 {
	a := s.amp[index]
	return real(a)*real(a) + imag(a)*imag(a)
}

// InnerProduct returns <s|o>.
func (s *State) InnerProduct(o *State) complex128 {
	if s.n != o.n {
		panic("sim: inner product of states with different qubit counts")
	}
	var sum complex128
	for i := range s.amp {
		sum += cmplx.Conj(s.amp[i]) * o.amp[i]
	}
	return sum
}

// Fidelity returns |<s|o>|, which is 1 iff the states are equal up to a
// global phase.
func (s *State) Fidelity(o *State) float64 {
	return cmplx.Abs(s.InnerProduct(o))
}

// apply1q applies a 2x2 matrix to qubit q via the branch-free pair kernel:
// 2^(n-1) compact iterations instead of a 2^n scan with skip branches. The
// per-pair arithmetic and visit order match the full-scan reference loop
// exactly, so the resulting state is bit-identical (legacy_test.go enforces
// this).
func (s *State) apply1q(m gatemat.Mat2, q int) {
	mat2Range(s.amp, m, q, 0, uint64(len(s.amp))>>1)
}

// applyControlled1q applies a 2x2 matrix to tgt on the subspace where all
// control qubits are |1>: 2^(n-1-controls) compact iterations. Bit sorting
// and mask setup use stack buffers so the per-gate trajectory hot path
// stays allocation-free.
func (s *State) applyControlled1q(m gatemat.Mat2, controls []int, tgt int) {
	var bitsBuf [MaxQubits + 1]int
	var masksBuf [MaxQubits + 1]uint64
	bits := insertSorted(bitsBuf[:0], tgt)
	for _, c := range controls {
		bits = insertSorted(bits, c)
	}
	masks := fillInsertMasks(masksBuf[:len(bits)], bits)
	ctrlMat2Range(s.amp, m, masks, bitMask(controls), 1<<uint(tgt),
		0, uint64(len(s.amp))>>uint(len(bits)))
}

// applyPhase multiplies amplitudes of basis states where all the given
// qubits are |1> by phase: 2^(n-qubits) compact iterations.
func (s *State) applyPhase(phase complex128, qubits []int) {
	var bitsBuf [MaxQubits + 1]int
	var masksBuf [MaxQubits + 1]uint64
	bits := bitsBuf[:0]
	for _, q := range qubits {
		bits = insertSorted(bits, q)
	}
	masks := fillInsertMasks(masksBuf[:len(bits)], bits)
	phaseRange(s.amp, phase, masks, bitMask(qubits),
		0, uint64(len(s.amp))>>uint(len(bits)))
}

// applySwap exchanges qubits a and b: 2^(n-2) compact iterations over the
// pairs with the a-bit set and the b-bit clear.
func (s *State) applySwap(a, b int) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	masks := [2]uint64{uint64(1)<<uint(lo) - 1, uint64(1)<<uint(hi) - 1}
	swapRange(s.amp, masks[:], 1<<uint(a), 1<<uint(b),
		0, uint64(len(s.amp))>>2)
}

var xMat = gatemat.Mat2{0, 1, 1, 0}

// ApplyGate applies one unitary gate. Measure and Barrier return an error;
// callers doing equivalence checks should strip pseudo-ops first.
func (s *State) ApplyGate(g circuit.Gate) error {
	for _, q := range g.Qubits {
		if q < 0 || q >= s.n {
			return fmt.Errorf("sim: gate %v qubit %d outside [0,%d)", g.Name, q, s.n)
		}
	}
	switch g.Name {
	case circuit.Measure, circuit.Barrier:
		if g.Name == circuit.Barrier {
			return nil // barriers are scheduling hints; identity on the state
		}
		return fmt.Errorf("sim: cannot apply %v as a unitary", g.Name)
	case circuit.CX:
		s.applyControlled1q(xMat, g.Qubits[:1], g.Qubits[1])
		return nil
	case circuit.CZ, circuit.CP:
		phase, _ := gatemat.PhaseOf(g.Name, g.Params)
		s.applyPhase(phase, g.Qubits)
		return nil
	case circuit.SWAP:
		s.applySwap(g.Qubits[0], g.Qubits[1])
		return nil
	case circuit.CCX:
		s.applyControlled1q(xMat, g.Qubits[:2], g.Qubits[2])
		return nil
	case circuit.RCCX, circuit.RCCXdg:
		// Margolus gate via its defining sequence (self-inverse as a gate
		// list, so both names apply the same gates).
		return s.applyMargolus(g.Qubits[0], g.Qubits[1], g.Qubits[2])
	case circuit.CCZ:
		s.applyPhase(-1, g.Qubits)
		return nil
	case circuit.MCX:
		s.applyControlled1q(xMat, g.Controls(), g.Target())
		return nil
	default:
		m, err := gatemat.Single(g.Name, g.Params)
		if err != nil {
			return err
		}
		s.apply1q(m, g.Qubits[0])
		return nil
	}
}

// applyMargolus applies the relative-phase Toffoli
// ry(pi/4) t; cx c2,t; ry(pi/4) t; cx c1,t; ry(-pi/4) t; cx c2,t; ry(-pi/4) t.
func (s *State) applyMargolus(c1, c2, t int) error {
	const a = math.Pi / 4
	ry := func(angle float64) error {
		m, err := gatemat.Single(circuit.RY, []float64{angle})
		if err != nil {
			return err
		}
		s.apply1q(m, t)
		return nil
	}
	if err := ry(a); err != nil {
		return err
	}
	s.applyControlled1q(xMat, []int{c2}, t)
	if err := ry(a); err != nil {
		return err
	}
	s.applyControlled1q(xMat, []int{c1}, t)
	if err := ry(-a); err != nil {
		return err
	}
	s.applyControlled1q(xMat, []int{c2}, t)
	return ry(-a)
}

// ApplyCircuit applies every gate of c in order.
func (s *State) ApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits > s.n {
		return fmt.Errorf("sim: circuit needs %d qubits, state has %d", c.NumQubits, s.n)
	}
	for i := range c.Gates {
		if err := s.ApplyGate(c.Gates[i]); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// MeasureAll returns a sampled basis state using the given RNG.
// The state is not collapsed.
func (s *State) MeasureAll(rng *rand.Rand) uint64 {
	r := rng.Float64()
	var cum float64
	for i := uint64(0); i < uint64(len(s.amp)); i++ {
		cum += s.Probability(i)
		if r < cum {
			return i
		}
	}
	return uint64(len(s.amp) - 1)
}
