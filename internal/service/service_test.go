package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"trios/internal/compiler"
	"trios/internal/qasm"
)

// seedp builds the pointer form CompileRequest.Seed requires.
func seedp(v int64) *int64 { return &v }

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

func mustResolve(t *testing.T, req CompileRequest) *JobSpec {
	t.Helper()
	spec, err := Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestServiceGoldenVsDirectCompile pins the serving layer's core contract:
// the artifact for (QASM, device, options, seed) is byte-identical to a
// direct compiler.Compile + qasm.Emit of the same configuration — which is
// exactly what cmd/trios prints (its own golden test pins that side), so the
// daemon and the CLI agree byte-for-byte.
func TestServiceGoldenVsDirectCompile(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	req := CompileRequest{Benchmark: "cnx_dirty-11", Topology: "johannesburg", Pipeline: "trios", Seed: seedp(7)}
	spec := mustResolve(t, req)

	cold, outcome, err := s.Compile(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != "miss" {
		t.Fatalf("cold outcome = %q, want miss", outcome)
	}
	want, err := compiler.Compile(spec.Input, spec.Graph, spec.Opts)
	if err != nil {
		t.Fatal(err)
	}
	wantQASM, err := qasm.Emit(want.Physical)
	if err != nil {
		t.Fatal(err)
	}
	if cold.QASM != wantQASM {
		t.Fatal("served QASM differs from direct compile")
	}

	// Cache hit: same artifact, bit-identical bytes.
	hot, outcome, err := s.Compile(context.Background(), mustResolve(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != "hit" {
		t.Fatalf("warm outcome = %q, want hit", outcome)
	}
	if hot != cold {
		t.Fatal("hit must return the cached artifact")
	}
	if !bytes.Equal(hot.Body, cold.Body) {
		t.Fatal("hit body differs from cold body")
	}
}

// TestCanonicalizationSharesCacheEntries: a commented/reformatted variant of
// the same program must hit the entry its twin populated.
func TestCanonicalizationSharesCacheEntries(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	a := CompileRequest{QASM: "qreg q[3];\nh q[0];\nccx q[0], q[1], q[2];\n", Topology: "line", Seed: seedp(3)}
	b := CompileRequest{QASM: "// variant\nqreg q[3]; h q[0];\nccx q[0],q[1],q[2];", Topology: "line", Seed: seedp(3)}
	specA, specB := mustResolve(t, a), mustResolve(t, b)
	if specA.Key != specB.Key {
		t.Fatalf("canonicalization failed to unify keys:\n%s\n%s", specA.Key, specB.Key)
	}
	if _, outcome, err := s.Compile(context.Background(), specA); err != nil || outcome != "miss" {
		t.Fatalf("first compile: outcome=%q err=%v", outcome, err)
	}
	if _, outcome, err := s.Compile(context.Background(), specB); err != nil || outcome != "hit" {
		t.Fatalf("variant compile: outcome=%q err=%v", outcome, err)
	}
}

// TestConcurrentIdenticalRequestsCollapse fires many identical requests at
// once and checks exactly one compile happened; everyone shares one
// artifact.
func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	req := CompileRequest{Benchmark: "grovers-9", Topology: "johannesburg", Pipeline: "trios", Seed: seedp(11)}

	const n = 16
	var wg sync.WaitGroup
	arts := make([]*Artifact, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := mustResolve(t, req)
			<-start
			arts[i], _, errs[i] = s.Compile(context.Background(), spec)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if arts[i] != arts[0] {
			t.Fatalf("request %d got a different artifact", i)
		}
	}
	s.metrics.mu.Lock()
	misses := s.metrics.outcomes["miss"]
	total := s.metrics.outcomes["miss"] + s.metrics.outcomes["hit"] + s.metrics.outcomes["coalesced"]
	s.metrics.mu.Unlock()
	if misses != 1 {
		t.Fatalf("%d compiles ran, want 1", misses)
	}
	if total != n {
		t.Fatalf("accounted %d outcomes, want %d", total, n)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", s.cache.Len())
	}
}

// slowRequest builds a request whose compile takes long enough to hold a
// worker busy while the test probes admission control. Seeds keep the keys
// distinct (the text canonicalizes identically).
func slowRequest(seed int64) CompileRequest {
	var b bytes.Buffer
	b.WriteString("qreg q[20];\n")
	for i := 0; i < 4000; i++ {
		base := i % 17
		fmt.Fprintf(&b, "ccx q[%d], q[%d], q[%d];\n", base, base+1, base+2)
	}
	return CompileRequest{QASM: b.String(), Topology: "johannesburg", Pipeline: "trios", Seed: &seed}
}

// TestOverloadReturns429 drives a 1-worker, depth-1-queue service past
// capacity and checks the overflow request is shed immediately with
// ErrOverloaded instead of queueing unboundedly.
func TestOverloadReturns429(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})

	type res struct {
		art *Artifact
		err error
	}
	// Resolve every request before A starts: building and parsing a
	// 4,000-gate request takes milliseconds, and A must still hold the
	// worker when C arrives.
	specA, specB, specC := mustResolve(t, slowRequest(1)), mustResolve(t, slowRequest(2)), mustResolve(t, slowRequest(3))

	// A occupies the only worker.
	aDone := make(chan res, 1)
	go func() {
		art, _, err := s.Compile(context.Background(), specA)
		aDone <- res{art, err}
	}()
	waitFor(t, func() bool {
		qlen, _ := s.QueueStats()
		return qlen == 0 && s.metrics.inFlight.Load() == 0 && len(s.waitersSnapshot()) == 1
	})

	// B fills the queue's single slot.
	bDone := make(chan res, 1)
	go func() {
		art, _, err := s.Compile(context.Background(), specB)
		bDone <- res{art, err}
	}()
	waitFor(t, func() bool { qlen, _ := s.QueueStats(); return qlen == 1 })

	// C must be shed.
	_, _, err := s.Compile(context.Background(), specC)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow request got %v, want ErrOverloaded", err)
	}

	for _, ch := range []chan res{aDone, bDone} {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.art == nil || len(r.art.Body) == 0 {
			t.Fatal("queued requests must still complete")
		}
	}
}

// TestFrontDedupAcrossRequests: two requests for one program on different
// devices share the device-independent front passes — the second compile's
// front metrics arrive marked Cached, proving the daemon dedups by content
// digest even though each request parsed a fresh circuit pointer.
func TestFrontDedupAcrossRequests(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	for i, topoName := range []string{"line", "grid"} {
		spec := mustResolve(t, CompileRequest{Benchmark: "cnx_dirty-11", Topology: topoName, Pipeline: "trios", Seed: seedp(9)})
		art, _, err := s.Compile(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(art.Passes) == 0 {
			t.Fatal("artifact carries no pass metrics")
		}
		frontCached := art.Passes[0].Cached
		if want := i > 0; frontCached != want {
			t.Fatalf("request %d on %s: front Cached=%v, want %v", i, topoName, frontCached, want)
		}
	}
}

// TestDepartedClientStillFeedsCache: a compile, once admitted, runs to
// completion even when the requesting client's context is already dead —
// the work is spent either way and the artifact must feed coalesced
// followers and later cache hits instead of poisoning them with the
// leader's context error.
func TestDepartedClientStillFeedsCache(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	spec := mustResolve(t, CompileRequest{Benchmark: "qft_adder-16", Topology: "grid", Seed: seedp(6)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the compile even starts
	art, outcome, err := s.Compile(ctx, spec)
	if err != nil || outcome != "miss" || art == nil {
		t.Fatalf("departed-leader compile: outcome=%q err=%v", outcome, err)
	}
	if _, outcome, err := s.Compile(context.Background(), mustResolve(t, CompileRequest{Benchmark: "qft_adder-16", Topology: "grid", Seed: seedp(6)})); err != nil || outcome != "hit" {
		t.Fatalf("follow-up should hit the cache: outcome=%q err=%v", outcome, err)
	}
}

// TestCloseAnswersQueuedWaiters: a drain deadline that fires while jobs are
// still queued must unblock those requests with ErrDraining, not leave them
// hanging forever.
func TestCloseAnswersQueuedWaiters(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	done := make(chan error, 2)
	// Resolve both requests before A starts, so A still holds the worker
	// when B arrives.
	specA, specB := mustResolve(t, slowRequest(21)), mustResolve(t, slowRequest(22))
	// A occupies the worker; B sits in the queue.
	go func() {
		_, _, err := s.Compile(context.Background(), specA)
		done <- err
	}()
	waitFor(t, func() bool { qlen, _ := s.QueueStats(); return qlen == 0 && len(s.waitersSnapshot()) == 1 })
	go func() {
		_, _, err := s.Compile(context.Background(), specB)
		done <- err
	}()
	waitFor(t, func() bool { qlen, _ := s.QueueStats(); return qlen == 1 })

	// Drain with an immediate deadline: the worker aborts A at its next pass
	// boundary and B is answered by the dispatcher sweep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Close(ctx)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, ErrDraining) {
				t.Fatalf("queued request got %v, want nil or ErrDraining", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("request hung across Close")
		}
	}
}

// TestDrainRefusesNewWork: after Close begins, new requests get ErrDraining.
func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Config{Workers: 1})
	spec := mustResolve(t, CompileRequest{Benchmark: "bv-20", Topology: "line", Seed: seedp(1)})
	if _, _, err := s.Compile(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Cache hits still work on a drained service; compiles are refused.
	if _, outcome, err := s.Compile(context.Background(), spec); err != nil || outcome != "hit" {
		t.Fatalf("cached artifact after drain: outcome=%q err=%v", outcome, err)
	}
	miss := mustResolve(t, CompileRequest{Benchmark: "bv-20", Topology: "line", Seed: seedp(99)})
	if _, _, err := s.Compile(context.Background(), miss); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
}

// TestCompileErrorClassification: well-formed requests that cannot compile
// (circuit larger than the device) surface as CompileError, not RequestError.
func TestCompileErrorClassification(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	big := "qreg q[25];\nh q[0];\ncx q[0], q[24];\n" // more qubits than any 20-qubit device
	spec := mustResolve(t, CompileRequest{QASM: big, Topology: "line", Seed: seedp(1)})
	_, _, err := s.Compile(context.Background(), spec)
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CompileError", err)
	}
}

func TestResolveRejections(t *testing.T) {
	cases := []CompileRequest{
		{},
		{QASM: "qreg q[2]; h q[0];", Benchmark: "bv-20"},
		{QASM: "not qasm at all"},
		{Benchmark: "no-such-benchmark"},
		{Benchmark: "bv-20", Topology: "hypercube"},
		{Benchmark: "bv-20", Pipeline: "warp"},
		{Benchmark: "bv-20", Toffoli: "7"},
		{Benchmark: "bv-20", Router: "teleport"},
		{Benchmark: "bv-20", Placement: "astrology"},
	}
	for i, req := range cases {
		_, err := Resolve(req)
		var re *RequestError
		if !errors.As(err, &re) {
			t.Errorf("case %d: got %v, want RequestError", i, err)
		}
	}
}

// TestSeedDefaultMatchesCLI: an omitted seed must behave like the CLI's
// default -seed 1, sharing a cache key with an explicit seed-1 request —
// while an explicit seed 0 is honored as seed 0 (matching `trios -seed 0`),
// not silently coerced to the default.
func TestSeedDefaultMatchesCLI(t *testing.T) {
	a := mustResolve(t, CompileRequest{Benchmark: "bv-20"})
	b := mustResolve(t, CompileRequest{Benchmark: "bv-20", Seed: seedp(1)})
	if a.Key != b.Key {
		t.Fatal("default seed does not alias seed 1")
	}
	if a.Opts.Seed != 1 {
		t.Fatalf("default seed = %d, want 1", a.Opts.Seed)
	}
	zero := mustResolve(t, CompileRequest{Benchmark: "bv-20", Seed: seedp(0)})
	if zero.Opts.Seed != 0 {
		t.Fatalf("explicit seed 0 resolved to %d", zero.Opts.Seed)
	}
	if zero.Key == a.Key {
		t.Fatal("explicit seed 0 must not share the default seed's key")
	}
}

// TestBenchmarkAliasesInlineQASM: a named-benchmark request and the same
// program posted as QASM content-address to the same key.
func TestBenchmarkAliasesInlineQASM(t *testing.T) {
	byName := mustResolve(t, CompileRequest{Benchmark: "qaoa_complete-10", Seed: seedp(2)})
	src, err := qasm.Emit(byName.Input)
	if err != nil {
		t.Fatal(err)
	}
	inline := mustResolve(t, CompileRequest{QASM: src, Seed: seedp(2)})
	if byName.Key != inline.Key {
		t.Fatal("benchmark and inline QASM forms of one program have different keys")
	}
}

// waitersSnapshot returns the ids of requests currently awaiting results.
func (s *Service) waitersSnapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.waiters))
	for id := range s.waiters {
		ids = append(ids, id)
	}
	return ids
}
