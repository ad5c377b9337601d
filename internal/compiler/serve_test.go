package compiler

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/decompose"
	"trios/internal/topo"
)

func TestCacheKeyStability(t *testing.T) {
	a := Options{Pipeline: TriosPipeline, Router: RouteDirect, Placement: PlaceGreedy, Seed: 7}
	b := a
	ka := a.CacheKey()
	kb := b.CacheKey()
	if ka != kb {
		t.Fatalf("equal options produced different keys:\n%s\n%s", ka, kb)
	}
	// Every output-affecting field must move the key.
	variants := []Options{}
	v := a
	v.Pipeline = Conventional
	variants = append(variants, v)
	v = a
	v.Router = RouteStochastic
	variants = append(variants, v)
	v = a
	v.Mode = 2
	variants = append(variants, v)
	v = a
	v.Placement = PlaceRandom
	variants = append(variants, v)
	v = a
	v.Seed = 8
	variants = append(variants, v)
	v = a
	v.Optimize = true
	variants = append(variants, v)
	v = a
	v.InitialLayout = []int{0, 1, 2}
	variants = append(variants, v)
	seen := map[string]bool{ka: true}
	for i, o := range variants {
		k := o.CacheKey()
		if seen[k] {
			t.Fatalf("variant %d collided with another key: %s", i, k)
		}
		seen[k] = true
	}
}

// TestParseHelpersRoundTrip pins the shared string→enum vocabulary to the
// enums' own String forms where they exist, and rejects unknowns.
func TestParseHelpersRoundTrip(t *testing.T) {
	for _, p := range []Pipeline{Conventional, TriosPipeline} {
		got, err := ParsePipeline(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePipeline(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, r := range []RouterKind{RouteDirect, RouteStochastic, RouteLookahead} {
		got, err := ParseRouter(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRouter(%q) = %v, %v", r.String(), got, err)
		}
	}
	for _, pl := range []Placement{PlaceGreedy, PlaceIdentity, PlaceRandom} {
		got, err := ParsePlacement(pl.String())
		if err != nil || got != pl {
			t.Errorf("ParsePlacement(%q) = %v, %v", pl.String(), got, err)
		}
	}
	for name, want := range map[string]decompose.ToffoliMode{"auto": decompose.Auto, "6": decompose.Six, "8": decompose.Eight} {
		got, err := ParseToffoli(name)
		if err != nil || got != want {
			t.Errorf("ParseToffoli(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePipeline("warp"); err == nil {
		t.Error("ParsePipeline accepted garbage")
	}
	if _, err := ParseRouter(""); err == nil {
		t.Error("ParseRouter accepted empty")
	}
	if _, err := ParsePlacement("astrology"); err == nil {
		t.Error("ParsePlacement accepted garbage")
	}
	if _, err := ParseToffoli("7"); err == nil {
		t.Error("ParseToffoli accepted garbage")
	}
}

// TestCompileContextCancelled checks that the pipeline the batch engine
// runs stops at a pass boundary once its context is cancelled.
func TestCompileContextCancelled(t *testing.T) {
	b, err := benchmarks.ByName("grovers-9")
	if err != nil {
		t.Fatal(err)
	}
	input, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = compileFrom(ctx, nil, nil, Job{Input: input, Graph: topo.Johannesburg(), Opts: Options{Pipeline: TriosPipeline, Placement: PlaceGreedy, Seed: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestServeMatchesCompile feeds jobs through the persistent pool and checks
// every result is bit-identical to a direct Compile of the same job.
func TestServeMatchesCompile(t *testing.T) {
	bench, err := benchmarks.ByName("cnx_dirty-11")
	if err != nil {
		t.Fatal(err)
	}
	input, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan Job)
	pool := &Batch{Workers: 4}
	out := pool.Serve(ctx, in)

	const n = 12
	go func() {
		for i := 0; i < n; i++ {
			opts := Options{Pipeline: TriosPipeline, Placement: PlaceGreedy, Seed: int64(i % 3)}
			in <- Job{ID: fmt.Sprintf("job-%d", i), Input: input, Graph: g, Opts: opts}
		}
		close(in)
	}()

	got := 0
	for jr := range out {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Job.ID, jr.Err)
		}
		if jr.Index != -1 {
			t.Fatalf("%s: Serve results must carry Index -1, got %d", jr.Job.ID, jr.Index)
		}
		want, err := Compile(jr.Job.Input, jr.Job.Graph, jr.Job.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Result.Physical.String() != want.Physical.String() {
			t.Fatalf("%s: served result differs from direct Compile", jr.Job.ID)
		}
		got++
	}
	if got != n {
		t.Fatalf("got %d results, want %d", got, n)
	}
}

// TestFrontCacheBounded checks the Serve pool's front cache resets instead
// of growing without bound: its keys include input pointer identity, which
// never repeats across independently-parsed daemon requests.
func TestFrontCacheBounded(t *testing.T) {
	bench, err := benchmarks.ByName("bv-20")
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrontCache()
	fc.max = 4
	for i := 0; i < 20; i++ {
		input, err := bench.Build() // fresh pointer each time, like a parsed request
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fc.get(input, "", Options{Pipeline: TriosPipeline}, nil); err != nil {
			t.Fatal(err)
		}
	}
	fc.mu.Lock()
	n := len(fc.m)
	fc.mu.Unlock()
	if n > 4 {
		t.Fatalf("front cache grew to %d entries, max is 4", n)
	}
}

// TestFrontCacheContentKey checks a Job.FrontKey lets distinct input
// pointers share one front computation — and that the shared output is the
// same prepared circuit object.
func TestFrontCacheContentKey(t *testing.T) {
	bench, err := benchmarks.ByName("cnx_dirty-11")
	if err != nil {
		t.Fatal(err)
	}
	in1, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	in2, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in1 == in2 {
		t.Fatal("test premise broken: Build returned a shared pointer")
	}
	fc := newFrontCache()
	opts := Options{Pipeline: TriosPipeline}
	c1, m1, err := fc.get(in1, "digest-A", opts, nil)
	if err != nil || m1[0].Cached {
		t.Fatalf("first get: cached=%v err=%v", m1[0].Cached, err)
	}
	c2, m2, err := fc.get(in2, "digest-A", opts, nil)
	if err != nil || !m2[0].Cached {
		t.Fatalf("second get: cached=%v err=%v", m2[0].Cached, err)
	}
	if c1 != c2 {
		t.Fatal("content-keyed gets returned different prepared circuits")
	}
	// A different content key must not alias.
	_, m3, err := fc.get(in2, "digest-B", opts, nil)
	if err != nil || m3[0].Cached {
		t.Fatalf("distinct content key: cached=%v err=%v", m3[0].Cached, err)
	}
}

// TestServeCancelStops checks the pool exits when its context is cancelled
// even though the feed channel stays open.
func TestServeCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Job)
	out := (&Batch{Workers: 2}).Serve(ctx, in)
	cancel()
	for range out {
	}
}
