// Persistent sweep workers for parallel fused runs.
//
// The previous parallel path spawned fresh goroutines for every fused op —
// for a compiled circuit with thousands of sweeps that is thousands of
// create/schedule/exit cycles, and that dispatch overhead can swallow the
// parallel win entirely. A sweepPool amortizes it: the goroutines are
// created once per Run, park on a channel between sweeps, and the caller
// itself executes the final chunk of every sweep instead of blocking idle
// in Wait.
package sim

import "sync"

// grainAlign rounds chunk boundaries up to a multiple of 64 compact
// indices. 64 indices cover at least 16 cache lines of amplitudes (4
// complex128 per 64-byte line), so two workers never share a line even for
// kernels that touch index pairs — no false sharing at the seams.
const grainAlign = 64

// minParallelRange is the compact-range length below which a sweep always
// runs serially. Even with pooled workers, handing off a sweep costs a
// channel round-trip per lane (~1-2us); below ~2^13 compact indices the
// serial sweep finishes before the fan-out pays for itself.
const minParallelRange = 1 << 13

type sweepTask struct {
	fn     func(lo, hi uint64)
	lo, hi uint64
	wg     *sync.WaitGroup
}

// sweepPool runs amplitude sweeps across a fixed set of lanes. Lane 0 is
// the caller itself; lanes-1 worker goroutines drain the task channel until
// close(). The pool is cheap enough to create per FusedProgram.Run but must
// not be created per sweep — that would reintroduce the spawn overhead it
// exists to remove.
type sweepPool struct {
	lanes int
	tasks chan sweepTask
}

func newSweepPool(lanes int) *sweepPool {
	p := &sweepPool{lanes: lanes, tasks: make(chan sweepTask, lanes)}
	for w := 1; w < lanes; w++ {
		go func() {
			for t := range p.tasks {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return p
}

// close releases the worker goroutines. The pool must be idle.
func (p *sweepPool) close() { close(p.tasks) }

// sweep runs fn over the compact range [0, n), split into grain-aligned
// chunks, one per lane. Chunk boundaries depend only on n and the lane
// count, and chunks touch disjoint amplitudes, so the result is
// bit-identical to fn(0, n). The caller executes the last chunk inline —
// with lanes == GOMAXPROCS that keeps every P busy and saves one handoff.
func (p *sweepPool) sweep(n uint64, fn func(lo, hi uint64)) {
	chunk := (n + uint64(p.lanes) - 1) / uint64(p.lanes)
	chunk = (chunk + grainAlign - 1) &^ uint64(grainAlign-1)
	var wg sync.WaitGroup
	lo := uint64(0)
	for ; lo+chunk < n; lo += chunk {
		wg.Add(1)
		p.tasks <- sweepTask{fn: fn, lo: lo, hi: lo + chunk, wg: &wg}
	}
	fn(lo, n)
	wg.Wait()
}
