package compiler

import (
	"context"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/device"
	"trios/internal/topo"
)

func benchCompile(b *testing.B, pipe Pipeline, router RouterKind) {
	b.Helper()
	grover, err := benchmarks.Grover(6)
	if err != nil {
		b.Fatal(err)
	}
	g := topo.Johannesburg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Compile(grover, g, Options{
			Pipeline:  pipe,
			Router:    router,
			Placement: PlaceGreedy,
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.TwoQubitGates()), "two-qubit-gates")
		}
	}
}

func BenchmarkCompileGroverBaseline(b *testing.B)   { benchCompile(b, Conventional, RouteDirect) }
func BenchmarkCompileGroverTrios(b *testing.B)      { benchCompile(b, TriosPipeline, RouteDirect) }
func BenchmarkCompileGroverStochastic(b *testing.B) { benchCompile(b, Conventional, RouteStochastic) }

// benchBatch drains a (benchmark x topology x pipeline x seed) grid through
// the batch engine with the given worker count.
func benchBatch(b *testing.B, workers int) {
	b.Helper()
	grover, err := benchmarks.Grover(6)
	if err != nil {
		b.Fatal(err)
	}
	var jobs []Job
	for _, g := range topo.PaperTopologies() {
		for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
			for seed := int64(0); seed < 4; seed++ {
				jobs = append(jobs, Job{
					Input: grover, Graph: g,
					Opts: Options{Pipeline: pipe, Placement: PlaceGreedy, Seed: seed},
				})
			}
		}
	}
	engine := &Batch{Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := engine.Run(context.Background(), jobs)
		if err != nil {
			b.Fatal(err)
		}
		for _, jr := range rs {
			if jr.Err != nil {
				b.Fatal(jr.Err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

func BenchmarkBatchGroverSerial(b *testing.B)   { benchBatch(b, 1) }
func BenchmarkBatchGroverParallel(b *testing.B) { benchBatch(b, 0) }

// BenchmarkCompileOptimizedGrid compiles the 88 optimize-on configurations
// perfbench's serve-cold workload draws: the 11 Table-1 circuits on the 4
// paper topologies under both pipelines, with the stochastic router,
// identity placement, the topology's registry calibration and the uniform
// cost model. One op is all 88 compiles; B/op and allocs/op show what the
// optimize passes allocate.
func BenchmarkCompileOptimizedGrid(b *testing.B) {
	type cell struct {
		input *circuit.Circuit
		graph *topo.Graph
		opts  Options
	}
	var cells []cell
	for _, bm := range benchmarks.All() {
		input, err := bm.Build()
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"johannesburg", "grid", "line", "clusters"} {
			g, err := topo.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			cal, err := device.ForDevice(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
				cells = append(cells, cell{input, g, Options{
					Pipeline: pipe, Router: RouteStochastic, Placement: PlaceIdentity,
					Seed: 1, Optimize: true, Calibration: cal, CostModel: device.Uniform{},
				}})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := Compile(c.input, c.graph, c.opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cells)), "compiles")
}
