// Package stab is an Aaronson-Gottesman (CHP-style) stabilizer tableau
// simulator for Clifford circuits. Clifford simulation is polynomial in the
// qubit count, so it verifies compiled circuits at full device size where
// the statevector simulator would need gigabytes — e.g. the bv-20 benchmark
// (H and CX only) compiled onto any 20-qubit topology.
//
// The state is the stabilizer group of the current state, represented by n
// generators over the Pauli group: generator i has X-part x[i], Z-part z[i]
// (bit vectors over qubits) and a sign r[i] in {0, 1} for +/-.
package stab

import (
	"fmt"
	"math"

	"trios/internal/circuit"
)

// State is an n-qubit stabilizer state.
type State struct {
	n int
	// x[i][q], z[i][q] as bit-packed rows; r[i] in {0,1} is the sign bit.
	x [][]uint64
	z [][]uint64
	r []uint8
}

// words returns the number of 64-bit words needed for n qubits.
func words(n int) int { return (n + 63) / 64 }

// NewState returns |0...0>, stabilized by +Z_i for every qubit.
func NewState(n int) *State {
	if n <= 0 {
		panic("stab: non-positive qubit count")
	}
	s := &State{
		n: n,
		x: make([][]uint64, n),
		z: make([][]uint64, n),
		r: make([]uint8, n),
	}
	w := words(n)
	for i := 0; i < n; i++ {
		s.x[i] = make([]uint64, w)
		s.z[i] = make([]uint64, w)
		s.z[i][i/64] |= 1 << uint(i%64)
	}
	return s
}

// NumQubits returns the number of qubits.
func (s *State) NumQubits() int { return s.n }

// Reset returns the state to |0...0> in place, reusing the tableau storage.
// Trajectory workers reuse one state across thousands of shots.
func (s *State) Reset() {
	for i := 0; i < s.n; i++ {
		for w := range s.x[i] {
			s.x[i][w] = 0
			s.z[i][w] = 0
		}
		s.z[i][i/64] |= 1 << uint(i%64)
		s.r[i] = 0
	}
}

func (s *State) getX(i, q int) bool { return s.x[i][q/64]&(1<<uint(q%64)) != 0 }
func (s *State) getZ(i, q int) bool { return s.z[i][q/64]&(1<<uint(q%64)) != 0 }
func (s *State) flipX(i, q int)     { s.x[i][q/64] ^= 1 << uint(q%64) }
func (s *State) flipZ(i, q int)     { s.z[i][q/64] ^= 1 << uint(q%64) }

// H applies a Hadamard on qubit q.
func (s *State) H(q int) {
	for i := 0; i < s.n; i++ {
		xa, za := s.getX(i, q), s.getZ(i, q)
		if xa && za {
			s.r[i] ^= 1
		}
		if xa != za {
			s.flipX(i, q)
			s.flipZ(i, q)
		}
	}
}

// S applies a phase gate on qubit q.
func (s *State) S(q int) {
	for i := 0; i < s.n; i++ {
		xa, za := s.getX(i, q), s.getZ(i, q)
		if xa && za {
			s.r[i] ^= 1
		}
		if xa {
			s.flipZ(i, q)
		}
	}
}

// X applies a Pauli X on qubit q.
func (s *State) X(q int) {
	for i := 0; i < s.n; i++ {
		if s.getZ(i, q) {
			s.r[i] ^= 1
		}
	}
}

// Z applies a Pauli Z on qubit q.
func (s *State) Z(q int) {
	for i := 0; i < s.n; i++ {
		if s.getX(i, q) {
			s.r[i] ^= 1
		}
	}
}

// Y applies a Pauli Y on qubit q (Y = iXZ; the i is a global phase).
func (s *State) Y(q int) {
	s.Z(q)
	s.X(q)
}

// CX applies a CNOT with control a and target b.
func (s *State) CX(a, b int) {
	for i := 0; i < s.n; i++ {
		xa, za := s.getX(i, a), s.getZ(i, a)
		xb, zb := s.getX(i, b), s.getZ(i, b)
		if xa && zb && (xb == za) {
			s.r[i] ^= 1
		}
		if xa {
			s.flipX(i, b)
		}
		if zb {
			s.flipZ(i, a)
		}
	}
}

// CZ applies a controlled-Z between a and b.
func (s *State) CZ(a, b int) {
	s.H(b)
	s.CX(a, b)
	s.H(b)
}

// Swap exchanges qubits a and b.
func (s *State) Swap(a, b int) {
	s.CX(a, b)
	s.CX(b, a)
	s.CX(a, b)
}

// ApplyGate applies one Clifford gate from the circuit IR, recognizing
// Clifford rotation gates by their parameters (multiples of pi/2; CP needs a
// multiple of pi). Non-Clifford gates return an error. The accepted set
// agrees gate-for-gate with circuit.IsCliffordGate, which the test suite
// cross-checks.
func (s *State) ApplyGate(g circuit.Gate) error {
	for _, q := range g.Qubits {
		if q < 0 || q >= s.n {
			return fmt.Errorf("stab: qubit %d outside [0,%d)", q, s.n)
		}
	}
	switch g.Name {
	case circuit.I, circuit.Barrier:
		return nil
	case circuit.H:
		s.H(g.Qubits[0])
	case circuit.S:
		s.S(g.Qubits[0])
	case circuit.Sdg:
		s.sdg(g.Qubits[0])
	case circuit.X:
		s.X(g.Qubits[0])
	case circuit.Y:
		s.Y(g.Qubits[0])
	case circuit.Z:
		s.Z(g.Qubits[0])
	case circuit.SX:
		// sqrt(X) = H S H exactly (up to global phase).
		q := g.Qubits[0]
		s.H(q)
		s.S(q)
		s.H(q)
	case circuit.SXdg:
		q := g.Qubits[0]
		s.H(q)
		s.sdg(q)
		s.H(q)
	case circuit.RZ:
		// rz(k*pi/2) ~ u1(k*pi/2) up to a global phase the tableau ignores.
		return s.applyU1(g.Qubits[0], g.Params[0])
	case circuit.RX:
		// rx(theta) = H rz(theta) H up to global phase.
		k := quarter(g.Params[0])
		if k < 0 {
			return fmt.Errorf("stab: rx(%g) is not Clifford", g.Params[0])
		}
		q := g.Qubits[0]
		s.H(q)
		for i := 0; i < k; i++ {
			s.S(q)
		}
		s.H(q)
	case circuit.RY:
		k := quarter(g.Params[0])
		if k < 0 {
			return fmt.Errorf("stab: ry(%g) is not Clifford", g.Params[0])
		}
		s.applyRYQuarter(g.Qubits[0], k)
	case circuit.CX:
		s.CX(g.Qubits[0], g.Qubits[1])
	case circuit.CZ:
		s.CZ(g.Qubits[0], g.Qubits[1])
	case circuit.CP:
		// cp(0) = I and cp(pi) = CZ; odd quarter turns (controlled-S) are not
		// Clifford.
		k := quarter(g.Params[0])
		if k < 0 || k%2 != 0 {
			return fmt.Errorf("stab: cp(%g) is not Clifford", g.Params[0])
		}
		if k == 2 {
			s.CZ(g.Qubits[0], g.Qubits[1])
		}
	case circuit.SWAP:
		s.Swap(g.Qubits[0], g.Qubits[1])
	case circuit.U1:
		return s.applyU1(g.Qubits[0], g.Params[0])
	case circuit.U2:
		return s.applyU2(g.Qubits[0], g.Params[0], g.Params[1])
	case circuit.U3:
		return s.applyU3(g.Qubits[0], g.Params[0], g.Params[1], g.Params[2])
	default:
		return fmt.Errorf("stab: %v is not a recognized Clifford gate", g.Name)
	}
	return nil
}

// sdg applies S-dagger as three S gates.
func (s *State) sdg(q int) {
	s.S(q)
	s.S(q)
	s.S(q)
}

// applyRYQuarter applies RY(k*pi/2) for k in {0,1,2,3} via
// RY(pi/2) = X·H (apply H first, then X) and RY(pi) ~ Y.
func (s *State) applyRYQuarter(q, k int) {
	switch k {
	case 0:
	case 1:
		s.H(q)
		s.X(q)
	case 2:
		s.Y(q)
	case 3:
		s.H(q)
		s.X(q)
		s.Y(q)
	}
}

// quarter classifies an angle as a multiple of pi/2 in {0,1,2,3}, or -1.
// It is the engine's classifier (circuit.QuarterTurns) by definition, not a
// copy: dispatch correctness requires the classifier and this backend to
// agree on every angle.
func quarter(a float64) int { return circuit.QuarterTurns(a) }

// applyU1 handles u1(k*pi/2): I, S, Z, Sdg.
func (s *State) applyU1(q int, lambda float64) error {
	k := quarter(lambda)
	if k < 0 {
		return fmt.Errorf("stab: u1(%g) is not Clifford", lambda)
	}
	for i := 0; i < k; i++ {
		s.S(q)
	}
	return nil
}

// applyU2 handles u2(phi, lambda) via the ZYZ form
// u2 ~ RZ(phi) RY(pi/2) RZ(lambda) with RY(pi/2) = X·H
// (apply H first, then X): sequence u1(lambda), H, X, u1(phi).
func (s *State) applyU2(q int, phi, lambda float64) error {
	return s.applyU3(q, math.Pi/2, phi, lambda)
}

// applyU3 handles u3 angles that are multiples of pi/2 via the ZYZ
// decomposition u3(t, p, l) ~ u1(p) RY(t) u1(l), with RY(pi/2) = X·H and
// RY(pi) ~ Y up to global phase.
func (s *State) applyU3(q int, theta, phi, lambda float64) error {
	k := quarter(theta)
	if k < 0 {
		return fmt.Errorf("stab: u3(%g,...) is not Clifford", theta)
	}
	if err := s.applyU1(q, lambda); err != nil {
		return fmt.Errorf("stab: u3(%g,%g,%g) is not Clifford", theta, phi, lambda)
	}
	s.applyRYQuarter(q, k)
	if err := s.applyU1(q, phi); err != nil {
		return fmt.Errorf("stab: u3(%g,%g,%g) is not Clifford", theta, phi, lambda)
	}
	return nil
}

// ApplyCircuit applies every gate of a Clifford circuit.
func (s *State) ApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits > s.n {
		return fmt.Errorf("stab: circuit needs %d qubits, state has %d", c.NumQubits, s.n)
	}
	for i := range c.Gates {
		if c.Gates[i].Name == circuit.Measure {
			continue // verification states are compared before readout
		}
		if err := s.ApplyGate(c.Gates[i]); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// IsClifford reports whether every gate of a circuit is recognized as
// Clifford (dry run on a scratch state).
func IsClifford(c *circuit.Circuit) bool {
	s := NewState(max(1, c.NumQubits))
	for i := range c.Gates {
		if c.Gates[i].Name == circuit.Measure {
			continue
		}
		if err := s.ApplyGate(c.Gates[i]); err != nil {
			return false
		}
	}
	return true
}

// Equal reports whether two stabilizer states are identical (same
// stabilizer group including signs), by comparing canonicalized tableaus.
func (s *State) Equal(o *State) bool {
	if s.n != o.n {
		return false
	}
	a, b := s.Copy(), o.Copy()
	a.canonicalize()
	b.canonicalize()
	for i := 0; i < s.n; i++ {
		if a.r[i] != b.r[i] {
			return false
		}
		for w := range a.x[i] {
			if a.x[i][w] != b.x[i][w] || a.z[i][w] != b.z[i][w] {
				return false
			}
		}
	}
	return true
}

// Copy returns a deep copy.
func (s *State) Copy() *State {
	c := &State{n: s.n, x: make([][]uint64, s.n), z: make([][]uint64, s.n), r: make([]uint8, s.n)}
	copy(c.r, s.r)
	for i := 0; i < s.n; i++ {
		c.x[i] = append([]uint64{}, s.x[i]...)
		c.z[i] = append([]uint64{}, s.z[i]...)
	}
	return c
}

// PermuteQubits returns a new state with qubit q of the input relabeled to
// perm[q], used to undo the placement permutation routing leaves behind
// before comparing compiled and source states.
func (s *State) PermuteQubits(perm []int) *State {
	if len(perm) != s.n {
		panic("stab: permutation length mismatch")
	}
	out := NewState(s.n)
	copy(out.r, s.r)
	for i := 0; i < s.n; i++ {
		for w := range out.x[i] {
			out.x[i][w] = 0
			out.z[i][w] = 0
		}
		for q := 0; q < s.n; q++ {
			if s.getX(i, q) {
				out.flipX(i, perm[q])
			}
			if s.getZ(i, q) {
				out.flipZ(i, perm[q])
			}
		}
	}
	return out
}

// rowMul multiplies generator h by generator i (h <- h*i), tracking the
// sign with the Aaronson-Gottesman phase function.
func (s *State) rowMul(h, i int) {
	// Phase exponent of i^g over all qubits plus existing signs, mod 4.
	phase := 2*int(s.r[h]) + 2*int(s.r[i])
	for q := 0; q < s.n; q++ {
		x1, z1 := s.getX(i, q), s.getZ(i, q)
		x2, z2 := s.getX(h, q), s.getZ(h, q)
		phase += gExp(x1, z1, x2, z2)
	}
	phase = ((phase % 4) + 4) % 4
	if phase%2 != 0 {
		panic("stab: generator product has imaginary phase")
	}
	if phase == 2 {
		s.r[h] = 1
	} else {
		s.r[h] = 0
	}
	for w := range s.x[h] {
		s.x[h][w] ^= s.x[i][w]
		s.z[h][w] ^= s.z[i][w]
	}
}

// gExp is the exponent of i contributed when multiplying single-qubit
// Paulis (x1,z1) * (x2,z2) (Aaronson-Gottesman g function).
func gExp(x1, z1, x2, z2 bool) int {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	switch {
	case !x1 && !z1:
		return 0
	case x1 && z1: // Y
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X
		return b2i(z2) * (2*b2i(x2) - 1)
	default: // Z
		return b2i(x2) * (1 - 2*b2i(z2))
	}
}

// canonicalize brings the tableau to a unique reduced row-echelon form:
// X-block first (pivot on X bits by qubit order), then Z-block.
func (s *State) canonicalize() {
	row := 0
	// X part.
	for q := 0; q < s.n; q++ {
		pivot := -1
		for i := row; i < s.n; i++ {
			if s.getX(i, q) {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		s.swapRows(row, pivot)
		for i := 0; i < s.n; i++ {
			if i != row && s.getX(i, q) {
				s.rowMul(i, row)
			}
		}
		row++
	}
	// Z part on the remaining rows.
	for q := 0; q < s.n; q++ {
		pivot := -1
		for i := row; i < s.n; i++ {
			if s.getZ(i, q) {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		s.swapRows(row, pivot)
		// The pivot row is Z-only, so multiplying any other row by it
		// leaves that row's X part intact; clearing the column from every
		// row yields a unique reduced form.
		for i := 0; i < s.n; i++ {
			if i != row && s.getZ(i, q) {
				s.rowMul(i, row)
			}
		}
		row++
	}
}

func (s *State) swapRows(a, b int) {
	s.x[a], s.x[b] = s.x[b], s.x[a]
	s.z[a], s.z[b] = s.z[b], s.z[a]
	s.r[a], s.r[b] = s.r[b], s.r[a]
}
