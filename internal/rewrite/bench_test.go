package rewrite

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"trios/internal/circuit"
	"trios/internal/qasm"
)

// onion builds a palindrome cancellation chain: the first half is random CX
// gates over a dozen qubits, the second half the same gates in reverse
// order, so the circuit is the identity — but only cancellable from the
// middle outward, one nesting level at a time. This is the adversarial
// shape for the legacy Cancel loop: each fixpoint round only exposes the
// next innermost pair and recurses on the whole circuit, with a backward
// rebuildLast scan per removal — quadratic overall. The worklist engine
// retires the chain in near-linear time, re-enqueueing only the gates
// adjacent to each removal. (CX-only on purpose: a random 1q palindrome
// can merge itself into mixed-axis runs that need full matrix
// consolidation rather than local rules.)
func onion(n int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(7))
	const nq = 12
	half := make([]circuit.Gate, n/2)
	for i := range half {
		a := rng.Intn(nq)
		b := (a + 1 + rng.Intn(nq-1)) % nq
		half[i] = circuit.NewGate(circuit.CX, []int{a, b})
	}
	c := circuit.New(nq)
	for _, g := range half {
		c.Append(g)
	}
	for i := len(half) - 1; i >= 0; i-- {
		c.Append(half[i].Inverse())
	}
	return c
}

// TestCancelChain50kBoundedTime is the regression pin for the quadratic
// legacy behavior: a 50k-gate cancellation onion must saturate to empty in
// bounded time. The budget is generous (the engine does this in
// milliseconds; the legacy loop needs minutes) so slow CI hosts don't
// flake.
func TestCancelChain50kBoundedTime(t *testing.T) {
	c := onion(50_000)
	start := time.Now()
	out, st := Saturate(c, Options{})
	elapsed := time.Since(start)
	if len(out.Gates) != 0 {
		t.Fatalf("onion should cancel to empty, %d gates left", len(out.Gates))
	}
	if st.BudgetExhausted {
		t.Fatal("budget exhausted on a linear cancellation chain")
	}
	if limit := 20 * time.Second; elapsed > limit {
		t.Fatalf("50k-gate chain took %v (> %v): worklist engine regressed toward the quadratic legacy behavior", elapsed, limit)
	}
	t.Logf("50k-gate onion saturated in %v (%d rewrites)", elapsed, st.Rewrites)
}

func BenchmarkSaturateOnion50k(b *testing.B) {
	c := onion(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Saturate(c, Options{})
	}
}

// tombChain is the shape that exposes the legacy rebuildLast pathology:
// repeated blocks of [x(0), (h(1)·h(1))×9, x(0)]. The h pairs cancel
// immediately and become tombstones; each x-pair cancellation then makes
// rebuildLast scan backward over every dead slot below it looking for a
// live qubit-0 gate, so legacy Cancel goes quadratic (~3.4x time per 2x
// size) while the wire-list engine — whose qubit-0 links skip the dead
// zone entirely — stays linear.
func tombChain(n int) *circuit.Circuit {
	c := circuit.New(2)
	for len(c.Gates)+20 <= n {
		c.Append(circuit.NewGate(circuit.X, []int{0}))
		for j := 0; j < 9; j++ {
			c.Append(circuit.NewGate(circuit.H, []int{1}))
			c.Append(circuit.NewGate(circuit.H, []int{1}))
		}
		c.Append(circuit.NewGate(circuit.X, []int{0}))
	}
	return c
}

func BenchmarkSaturateTombChain20k(b *testing.B) {
	c := tombChain(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Saturate(c, Options{})
	}
}

func BenchmarkSaturateTombChain40k(b *testing.B) {
	c := tombChain(40_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Saturate(c, Options{})
	}
}

func BenchmarkSaturateRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng, 8, 2_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Saturate(c, Options{})
	}
}

// TestSaturateAllocsDoNotGrowWithGates pins the engine's buffer reuse: its
// links, flags and queue come from earlier calls, so a 2,000-gate and a
// 20,000-gate onion allocate the same number of times per call.
func TestSaturateAllocsDoNotGrowWithGates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	small, large := onion(2_000), onion(20_000)
	Saturate(large, Options{}) // size the pooled buffers for both
	allocs := func(c *circuit.Circuit) float64 {
		return testing.AllocsPerRun(10, func() { Saturate(c, Options{}) })
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("Saturate allocates %v times per call at 2,000 gates and %v at 20,000", a, b)
	}
}

// TestSaturateConcurrentMatchesSerial runs Saturate from several goroutines
// over the pinned cases in shuffled orders, so each call reuses buffers
// that a call of another size and options left behind: every output and
// Stats must equal the serial run's.
func TestSaturateConcurrentMatchesSerial(t *testing.T) {
	const cases, workers = 96, 4
	render := func(pc pinCase) string {
		out, st := Saturate(pc.in, pc.opts)
		src, err := qasm.Emit(out)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("%s%+v", src, st)
	}
	pcs := make([]pinCase, cases)
	want := make([]string, cases)
	for i := range pcs {
		pcs[i] = pinCaseAt(i)
		want[i] = render(pcs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers*cases)
	for w := 0; w < workers; w++ {
		order := rand.New(rand.NewSource(int64(w))).Perm(cases)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				if got := render(pcs[i]); got != want[i] {
					errs <- fmt.Sprintf("%s: concurrent output differs from serial:\n%s\nserial:\n%s", pcs[i].name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
