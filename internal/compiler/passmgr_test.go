package compiler

import (
	"fmt"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/decompose"
	"trios/internal/topo"
)

// sameResult asserts two results are gate-for-gate identical.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !got.Physical.Equal(want.Physical) {
		t.Fatalf("%s: compiled circuits differ (%d vs %d gates)", label, len(got.Physical.Gates), len(want.Physical.Gates))
	}
	if got.SwapsAdded != want.SwapsAdded {
		t.Fatalf("%s: swaps differ: %d vs %d", label, got.SwapsAdded, want.SwapsAdded)
	}
	for v := range want.Initial {
		if got.Initial[v] != want.Initial[v] {
			t.Fatalf("%s: initial layout differs at %d: %d vs %d", label, v, got.Initial[v], want.Initial[v])
		}
		if got.Final[v] != want.Final[v] {
			t.Fatalf("%s: final layout differs at %d: %d vs %d", label, v, got.Final[v], want.Final[v])
		}
	}
}

// TestPassManagerMatchesLegacyOnRegistry compiles every registry benchmark
// with both paper pipelines through the PassManager and asserts the output
// is gate-for-gate identical to the pre-refactor monolithic pipelines.
func TestPassManagerMatchesLegacyOnRegistry(t *testing.T) {
	g := topo.Johannesburg()
	for _, b := range benchmarks.All() {
		c, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
			opts := Options{
				Pipeline:  pipe,
				Router:    RouteStochastic,
				Placement: PlaceIdentity,
				Seed:      2021,
			}
			got, err := Compile(c, g, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, pipe, err)
			}
			want, err := legacyCompile(c, g, opts)
			if err != nil {
				t.Fatalf("%s/%v legacy: %v", b.Name, pipe, err)
			}
			sameResult(t, fmt.Sprintf("%s/%v", b.Name, pipe), got, want)
		}
	}
}

// TestPassManagerMatchesLegacyConfigs sweeps the design-choice grid —
// routers, placements and Toffoli modes — on one Toffoli-heavy benchmark.
func TestPassManagerMatchesLegacyConfigs(t *testing.T) {
	b, err := benchmarks.ByName("grovers-9")
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	cases := []Options{
		{Pipeline: Conventional, Router: RouteDirect, Placement: PlaceGreedy, Seed: 1},
		{Pipeline: Conventional, Router: RouteLookahead, Placement: PlaceIdentity, Seed: 2},
		{Pipeline: Conventional, Mode: decompose.Eight, Router: RouteStochastic, Placement: PlaceRandom, Seed: 3},
		{Pipeline: TriosPipeline, Router: RouteDirect, Placement: PlaceGreedy, Seed: 5},
		{Pipeline: TriosPipeline, Mode: decompose.Six, Router: RouteStochastic, Placement: PlaceIdentity, Seed: 6},
		{Pipeline: TriosPipeline, Mode: decompose.Eight, Router: RouteLookahead, Placement: PlaceRandom, Seed: 7},
	}
	for i, opts := range cases {
		got, err := Compile(c, g, opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := legacyCompile(c, g, opts)
		if err != nil {
			t.Fatalf("case %d legacy: %v", i, err)
		}
		sameResult(t, fmt.Sprintf("case %d", i), got, want)
	}
}

// TestPassMetricsRecorded asserts every pipeline stage reports a metric and
// that the terminal stats snapshot matches the compiled circuit.
func TestPassMetricsRecorded(t *testing.T) {
	b, err := benchmarks.ByName("grovers-9")
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Pipeline: TriosPipeline, Placement: PlaceGreedy, Seed: 1}
	res, err := Compile(c, topo.Johannesburg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PipelinePasses(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) != len(want) {
		t.Fatalf("got %d pass metrics, pipeline has %d passes", len(res.Passes), len(want))
	}
	for i, p := range want {
		if res.Passes[i].Pass != p.Name() {
			t.Fatalf("metric %d is %q, want %q", i, res.Passes[i].Pass, p.Name())
		}
	}
	last := res.Passes[len(res.Passes)-1]
	if last.Pass != "stats" {
		t.Fatalf("last pass is %q, want stats", last.Pass)
	}
	stats := res.Physical.CollectStats()
	if last.GatesAfter != stats.Total || last.TwoQubitAfter != stats.TwoQubit {
		t.Fatalf("stats snapshot (%d gates, %d 2q) does not match circuit (%d, %d)",
			last.GatesAfter, last.TwoQubitAfter, stats.Total, stats.TwoQubit)
	}
}

// TestUnknownPipelineAndMode preserves the old error behavior through the
// pass-composed entry point.
func TestUnknownPipelineAndMode(t *testing.T) {
	b, _ := benchmarks.ByName("grovers-9")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	if _, err := Compile(c, g, Options{Pipeline: Pipeline(99)}); err == nil {
		t.Fatal("expected error for unknown pipeline")
	}
	if _, err := Compile(c, g, Options{Pipeline: TriosPipeline, Mode: decompose.ToffoliMode(99)}); err == nil {
		t.Fatal("expected error for unsupported toffoli mode")
	}
}

// TestPipelinePassesReproduceCompile runs PipelinePasses through a fresh
// PassManager, as a caller timing the passes one by one does, and checks
// that it compiles to Compile's circuit.
func TestPipelinePassesReproduceCompile(t *testing.T) {
	b, _ := benchmarks.ByName("grovers-9")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	opts := Options{Pipeline: TriosPipeline, Placement: PlaceGreedy, Seed: 3}
	base, err := Compile(c, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	passes, err := PipelinePasses(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &PassContext{Graph: g, Opts: opts, Circuit: c}
	if err := NewPassManager("custom", passes...).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !ctx.Circuit.Equal(base.Physical) {
		t.Fatal("running PipelinePasses by hand compiled a different circuit")
	}
}
