// Gate fusion: compiling a circuit into a short list of fused amplitude
// sweeps.
//
// Compiled physical circuits are long runs of single-qubit u-gates
// punctuated by CNOTs. Applying each u-gate as its own 2^n sweep wastes
// memory bandwidth: two adjacent 2x2 matrices on the same qubit compose
// into one matrix, and one sweep applies the composition. FusedProgram
// performs that composition — every maximal run of single-qubit gates on a
// qubit between entangling gates collapses into a single Mat2 — and lowers
// the rest of the circuit onto the branch-free kernels, precomputing the
// insert masks once instead of per application.
//
// A program is immutable after Fuse and safe for concurrent Run calls on
// different states; the equivalence checker builds one program per circuit
// and reuses it across all random-state trials.
package sim

import (
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/gatemat"
)

type opKind uint8

const (
	opMat2 opKind = iota
	opCtrl
	opPhase
	opSwap
	opMat4
)

// fusedOp is one amplitude sweep: a (possibly fused) single-qubit matrix, a
// controlled single-qubit matrix, a diagonal phase, or a qubit swap.
type fusedOp struct {
	kind  opKind
	m     gatemat.Mat2
	m4    *mat4      // opMat4 block (see fuse4.go)
	q     int        // opMat2 qubit
	masks []uint64   // insert masks for the compact counter
	cmask uint64     // opCtrl: OR of control bits; opPhase: full mask
	abit  uint64     // opCtrl: target bit; opSwap: a bit; opMat4: low bit
	bbit  uint64     // opSwap: b bit; opMat4: high bit
	iters uint64     // compact iteration count for an n-qubit register
	phase complex128 // opPhase
}

// FusedProgram is a circuit compiled to fused kernels for a fixed register
// size.
type FusedProgram struct {
	n        int
	ops      []fusedOp
	maxIters uint64 // largest compact range of any op; gates pool creation in Run
}

// Fuse compiles a circuit for an n-qubit register (n >= c.NumQubits).
// Measure gates are rejected — strip them first, as the equivalence paths
// do; Barriers are dropped. RCCX/RCCXdg lower to their defining
// ry/cx sequence so the rotations fuse with neighboring gates.
func Fuse(c *circuit.Circuit, n int) (*FusedProgram, error) {
	if c.NumQubits > n {
		return nil, fmt.Errorf("sim: circuit needs %d qubits, register has %d", c.NumQubits, n)
	}
	if n > MaxQubits {
		return nil, fmt.Errorf("sim: qubit count %d exceeds MaxQubits %d", n, MaxQubits)
	}
	p := &FusedProgram{n: n}
	pending := make([]*gatemat.Mat2, n)
	flush := func(q int) {
		if pending[q] == nil {
			return
		}
		p.ops = append(p.ops, fusedOp{
			kind: opMat2, m: *pending[q], q: q,
			iters: uint64(1) << uint(n-1),
		})
		pending[q] = nil
	}
	accumulate := func(m gatemat.Mat2, q int) {
		if pending[q] == nil {
			pending[q] = &m
			return
		}
		fused := m.Mul(*pending[q]) // later gate composes on the left
		pending[q] = &fused
	}
	emitCtrl := func(m gatemat.Mat2, controls []int, tgt int) {
		for _, q := range controls {
			flush(q)
		}
		flush(tgt)
		bits := sortedBits(append(append([]int(nil), controls...), tgt)...)
		p.ops = append(p.ops, fusedOp{
			kind: opCtrl, m: m,
			masks: insertMasks(bits),
			cmask: bitMask(controls),
			abit:  1 << uint(tgt),
			iters: uint64(1) << uint(n-len(bits)),
		})
	}
	ryMat := func(angle float64) gatemat.Mat2 {
		m, _ := gatemat.Single(circuit.RY, []float64{angle})
		return m
	}
	for i := range c.Gates {
		g := c.Gates[i]
		for _, q := range g.Qubits {
			if q < 0 || q >= n {
				return nil, fmt.Errorf("sim: gate %d (%v) qubit %d outside [0,%d)", i, g.Name, q, n)
			}
		}
		switch g.Name {
		case circuit.Barrier:
		case circuit.Measure:
			return nil, fmt.Errorf("sim: gate %d: cannot fuse a Measure; strip pseudo-ops first", i)
		case circuit.CX:
			emitCtrl(xMat, g.Qubits[:1], g.Qubits[1])
		case circuit.CCX:
			emitCtrl(xMat, g.Qubits[:2], g.Qubits[2])
		case circuit.MCX:
			emitCtrl(xMat, g.Controls(), g.Target())
		case circuit.CZ, circuit.CP, circuit.CCZ:
			phase, _ := gatemat.PhaseOf(g.Name, g.Params)
			for _, q := range g.Qubits {
				flush(q)
			}
			bits := sortedBits(g.Qubits...)
			p.ops = append(p.ops, fusedOp{
				kind:  opPhase,
				masks: insertMasks(bits),
				cmask: bitMask(g.Qubits),
				iters: uint64(1) << uint(n-len(bits)),
				phase: phase,
			})
		case circuit.SWAP:
			a, b := g.Qubits[0], g.Qubits[1]
			flush(a)
			flush(b)
			p.ops = append(p.ops, fusedOp{
				kind:  opSwap,
				masks: insertMasks(sortedBits(a, b)),
				abit:  1 << uint(a),
				bbit:  1 << uint(b),
				iters: uint64(1) << uint(n-2),
			})
		case circuit.RCCX, circuit.RCCXdg:
			// Same lowering as State.applyMargolus, but the four RY quarter
			// rotations fuse with each other and with neighboring 1q gates.
			c1, c2, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
			const a = math.Pi / 4
			accumulate(ryMat(a), t)
			emitCtrl(xMat, []int{c2}, t)
			accumulate(ryMat(a), t)
			emitCtrl(xMat, []int{c1}, t)
			accumulate(ryMat(-a), t)
			emitCtrl(xMat, []int{c2}, t)
			accumulate(ryMat(-a), t)
		default:
			m, err := gatemat.Single(g.Name, g.Params)
			if err != nil {
				return nil, fmt.Errorf("sim: gate %d: %w", i, err)
			}
			accumulate(m, g.Qubits[0])
		}
	}
	for q := 0; q < n; q++ {
		flush(q)
	}
	p.ops = fuseBlocks(p.ops, n)
	for i := range p.ops {
		if p.ops[i].iters > p.maxIters {
			p.maxIters = p.ops[i].iters
		}
	}
	return p, nil
}

// runFusedOpRange applies one op over a sub-range of its compact counter:
// the serial dispatch for ops below the parallel crossover, and the unit
// the forced-parallel bit-identity test drives directly.
func runFusedOpRange(s *State, op *fusedOp, lo, hi uint64) {
	switch op.kind {
	case opMat2:
		mat2Range(s.amp, op.m, op.q, lo, hi)
	case opCtrl:
		ctrlMat2Range(s.amp, op.m, op.masks, op.cmask, op.abit, lo, hi)
	case opPhase:
		phaseRange(s.amp, op.phase, op.masks, op.cmask, lo, hi)
	case opSwap:
		swapRange(s.amp, op.masks, op.abit, op.bbit, lo, hi)
	case opMat4:
		mat4Range(s.amp, op.m4, op.masks, op.abit, op.bbit, lo, hi)
	}
}

// Run applies the program to a state, splitting every large sweep's compact
// range across up to `workers` lanes (resolved against GOMAXPROCS; <= 1
// means serial). Worker goroutines are created once per Run and reused for
// every sweep — and only when at least one op's range clears the parallel
// crossover, so small programs and single-lane processes never pay for a
// pool. Chunk boundaries depend only on the range length and lane count,
// and chunks touch disjoint amplitudes, so the resulting state is
// bit-identical for any worker count.
func (p *FusedProgram) Run(s *State, workers int) error {
	if s.n != p.n {
		return fmt.Errorf("sim: program compiled for %d qubits, state has %d", p.n, s.n)
	}
	workers = clampWorkers(workers)
	var pool *sweepPool
	if workers > 1 && p.maxIters >= minParallelRange {
		pool = newSweepPool(workers)
		defer pool.close()
	}
	amp := s.amp
	for i := range p.ops {
		op := &p.ops[i]
		if pool == nil || op.iters < minParallelRange {
			runFusedOpRange(s, op, 0, op.iters)
			continue
		}
		switch op.kind {
		case opMat2:
			pool.sweep(op.iters, func(lo, hi uint64) {
				mat2Range(amp, op.m, op.q, lo, hi)
			})
		case opCtrl:
			pool.sweep(op.iters, func(lo, hi uint64) {
				ctrlMat2Range(amp, op.m, op.masks, op.cmask, op.abit, lo, hi)
			})
		case opPhase:
			pool.sweep(op.iters, func(lo, hi uint64) {
				phaseRange(amp, op.phase, op.masks, op.cmask, lo, hi)
			})
		case opSwap:
			pool.sweep(op.iters, func(lo, hi uint64) {
				swapRange(amp, op.masks, op.abit, op.bbit, lo, hi)
			})
		case opMat4:
			pool.sweep(op.iters, func(lo, hi uint64) {
				mat4Range(amp, op.m4, op.masks, op.abit, op.bbit, lo, hi)
			})
		}
	}
	return nil
}
