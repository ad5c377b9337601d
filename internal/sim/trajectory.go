// The trajectory backend: Monte-Carlo Pauli-noise sampling across a worker
// pool.
//
// Each shot is an independent trajectory, so the sampler derives one RNG
// seed per shot (a splitmix64 hash of the caller's seed and the shot index)
// and lets workers drain shots from an atomic counter. Success counting is
// an integer sum over shots, so the result is bit-identical for any worker
// count — the same discipline the batch compilation engine enforces.
//
// Backend dispatch mirrors the verification engine: Clifford circuits run
// their trajectories on the stabilizer tableau — Pauli errors are Clifford,
// so a noisy Clifford trajectory stays Clifford — which removes the dense
// qubit cap entirely (up to the 64-qubit bitstring limit). Non-Clifford
// circuits run dense trajectories up to MaxQubits, already a jump from the
// serial path's 14-qubit cap.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"trios/internal/circuit"
)

// shotSeed derives the per-shot RNG seed with a splitmix64 mix of the
// caller's seed and the shot index. The derivation depends only on (seed,
// shot), never on worker identity or scheduling.
func shotSeed(seed int64, shot int) int64 {
	z := uint64(seed) ^ (uint64(shot)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// splitmixSource is a rand.Source64 over the splitmix64 generator. Seeding
// is a single store, where the standard library's lagged-Fibonacci source
// pays a ~2000-step expansion — per-shot reseeding made that the dominant
// trajectory cost. One source+Rand pair is reused per worker and reseeded
// for every shot.
type splitmixSource struct{ s uint64 }

func (r *splitmixSource) Seed(seed int64) { r.s = uint64(seed) }

func (r *splitmixSource) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmixSource) Int63() int64 { return int64(r.Uint64() >> 1) }

// MonteCarlo estimates the success probability of a circuit under Pauli
// noise by sampling `shots` noise trajectories across the engine's worker
// pool. The noise model and comparison semantics match MonteCarloSuccess
// (per-operand Pauli injection after every gate, readout flips, comparison
// restricted to the measured subset, mid-circuit Measure rejected); the
// sampling discipline differs: every shot draws from its own seed-derived
// RNG, so the estimate is deterministic for a fixed seed at any worker
// count, but is a different (equally valid) sample than the serial path's.
//
// Clifford circuits dispatch to the stabilizer backend and may use up to 64
// qubits; others use the dense backend up to MaxQubits.
func (e *Engine) MonteCarlo(c *circuit.Circuit, noise PauliNoise, expect, expectMask uint64, shots int, seed int64) (float64, error) {
	if shots <= 0 {
		return 0, fmt.Errorf("sim: non-positive shot count %d", shots)
	}
	cmpMask, err := compareMask(c, expectMask)
	if err != nil {
		return 0, err
	}
	var backend Backend = DenseBackend{}
	if (StabilizerBackend{}).Supports(c.StripPseudo()) {
		backend = StabilizerBackend{}
	} else if c.NumQubits > MaxQubits {
		return 0, fmt.Errorf("sim: non-Clifford circuit on %d qubits exceeds the dense backend's %d-qubit cap (Clifford circuits run on the stabilizer backend up to 64)", c.NumQubits, MaxQubits)
	}
	// Validate the gate set once, not per shot per worker.
	probe, err := backend.Prepare(max(1, c.NumQubits))
	if err != nil {
		return 0, err
	}
	for i, g := range c.Gates {
		if g.IsPseudo() {
			continue
		}
		if err := probe.Apply(g); err != nil {
			return 0, fmt.Errorf("gate %d: %w", i, err)
		}
	}

	// Pre-built Pauli gates, shared read-only by all workers.
	var paulis [3][]circuit.Gate
	for k, name := range []circuit.Name{circuit.X, circuit.Y, circuit.Z} {
		paulis[k] = make([]circuit.Gate, c.NumQubits)
		for q := 0; q < c.NumQubits; q++ {
			paulis[k][q] = circuit.NewGate(name, []int{q})
		}
	}

	workers := e.workers()
	if workers > shots {
		workers = shots
	}
	var (
		next      atomic.Int64
		successes atomic.Int64
		failed    atomic.Bool
		errMu     sync.Mutex
		firstErr  error
		wg        sync.WaitGroup
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	worker := func() {
		defer wg.Done()
		st, err := backend.Prepare(max(1, c.NumQubits))
		if err != nil {
			setErr(err)
			return
		}
		src := &splitmixSource{}
		rng := rand.New(src)
		for {
			shot := int(next.Add(1)) - 1
			if shot >= shots || failed.Load() {
				return
			}
			src.Seed(shotSeed(seed, shot))
			ok, err := runTrajectory(st, rng, c, noise, paulis, expect, cmpMask)
			if err != nil {
				setErr(err)
				return
			}
			if ok {
				successes.Add(1)
			}
		}
	}
	wg.Add(workers)
	if workers == 1 {
		// Serial fast path: run the single lane inline. Same atomic shot
		// drain, same per-shot seeds, so the estimate is identical — just
		// without a goroutine handoff per batch (GOMAXPROCS=1 replicas in
		// the serving fleet hit this path on every request).
		worker()
	} else {
		for i := 0; i < workers; i++ {
			go worker()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(successes.Load()) / float64(shots), nil
}

// runTrajectory executes one noisy shot on a reusable backend state with a
// freshly reseeded RNG.
func runTrajectory(st BackendState, rng *rand.Rand, c *circuit.Circuit, noise PauliNoise, paulis [3][]circuit.Gate, expect, cmpMask uint64) (bool, error) {
	st.Reset()
	for i := range c.Gates {
		g := c.Gates[i]
		if g.Name == circuit.Measure || g.Name == circuit.Barrier {
			continue
		}
		if err := st.Apply(g); err != nil {
			return false, fmt.Errorf("gate %d: %w", i, err)
		}
		p := noise.OneQubitError
		if len(g.Qubits) >= 2 {
			p = noise.TwoQubitError
		}
		for _, q := range g.Qubits {
			if rng.Float64() < p {
				if err := st.Apply(paulis[rng.Intn(3)][q]); err != nil {
					return false, err
				}
			}
		}
	}
	out := st.MeasureAll(rng)
	for q := 0; q < c.NumQubits; q++ {
		if rng.Float64() < noise.ReadoutError {
			out ^= 1 << uint(q)
		}
	}
	return out&cmpMask == expect&cmpMask, nil
}
