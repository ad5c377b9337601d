// Benchmarks regenerating each table and figure of the paper's evaluation.
// Each benchmark reports the headline metric of its artifact via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a results
// summary (`experiments -exp all` prints each figure beside the paper's
// value, and cmd/experiments/testdata pins that output).
package trios_test

import (
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/experiments"
	"trios/internal/noise"
	"trios/internal/topo"
)

const benchSeed = 2021

// skipInShort guards the simulation-heavy figure benchmarks so the CI
// bench smoke step (`go test -short -bench . -benchtime 1x`) exercises the
// compile-path benchmarks without paying for noisy-sim shot sampling.
func skipInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping simulation-heavy benchmark in -short mode")
	}
}

// BenchmarkTable1 regenerates the benchmark inventory: generating all
// eleven workloads and tabulating their Table-1 counts.
func BenchmarkTable1(b *testing.B) {
	var toffolis, cnots int
	for i := 0; i < b.N; i++ {
		toffolis, cnots = 0, 0
		for _, bench := range benchmarks.All() {
			m, err := bench.Measure()
			if err != nil {
				b.Fatal(err)
			}
			toffolis += m.Toffolis
			cnots += m.CNOTs
		}
	}
	b.ReportMetric(float64(toffolis), "toffolis-total")
	b.ReportMetric(float64(cnots), "cnots-total")
}

// BenchmarkFig1 compiles the motivating single-Toffoli example (distance-10
// trio on Johannesburg) with both pipelines and reports SWAP counts.
func BenchmarkFig1(b *testing.B) {
	g := topo.Johannesburg()
	src := circuit.New(3)
	src.CCX(0, 1, 2)
	init := []int{6, 17, 3}
	var baseSwaps, triosSwaps int
	for i := 0; i < b.N; i++ {
		base, err := compiler.Compile(src, g, compiler.Options{
			Pipeline: compiler.Conventional, InitialLayout: init, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		trios, err := compiler.Compile(src, g, compiler.Options{
			Pipeline: compiler.TriosPipeline, InitialLayout: init, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		baseSwaps, triosSwaps = base.SwapsAdded, trios.SwapsAdded
	}
	b.ReportMetric(float64(baseSwaps), "baseline-swaps")
	b.ReportMetric(float64(triosSwaps), "trios-swaps") // paper: 7
}

// toffoliExperiment runs the Fig. 6/7 experiment once.
func toffoliExperiment(b *testing.B, triplets int) []experiments.TripletResult {
	b.Helper()
	g := topo.Johannesburg()
	trips := experiments.RandomTriplets(g, triplets, benchSeed)
	model := noise.Johannesburg0819()
	rs, err := experiments.ToffoliExperiment(g, trips, model, 256, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkFig6 regenerates the Toffoli success-rate experiment: 35 random
// triplets x 4 compiler configurations under Johannesburg noise.
// Reports the geomean success of the baseline and Trios(8-CNOT) columns
// (paper: 41% -> 50%, a 23% improvement).
func BenchmarkFig6(b *testing.B) {
	skipInShort(b)
	var rs []experiments.TripletResult
	for i := 0; i < b.N; i++ {
		rs = toffoliExperiment(b, 35)
	}
	b.ReportMetric(experiments.GeoMeanColumn(rs, experiments.SuccessAsFloats, 0), "baseline-success")
	b.ReportMetric(experiments.GeoMeanColumn(rs, experiments.SuccessAsFloats, 3), "trios8-success")
}

// BenchmarkFig7 regenerates the Toffoli gate-count experiment and reports
// geomean compiled CNOTs (paper: 29 baseline -> 19 Trios, a 35% reduction).
func BenchmarkFig7(b *testing.B) {
	skipInShort(b)
	var rs []experiments.TripletResult
	for i := 0; i < b.N; i++ {
		rs = toffoliExperiment(b, 35)
	}
	b.ReportMetric(experiments.GeoMeanColumn(rs, experiments.CNOTsAsFloats, 0), "baseline-cnots")
	b.ReportMetric(experiments.GeoMeanColumn(rs, experiments.CNOTsAsFloats, 3), "trios8-cnots")
}

// BenchmarkFig8 regenerates the 99-triplet normalized-success experiment and
// reports the geomean Trios/baseline ratio (paper: 1.23x).
func BenchmarkFig8(b *testing.B) {
	skipInShort(b)
	var rs []experiments.TripletResult
	for i := 0; i < b.N; i++ {
		rs = toffoliExperiment(b, 99)
	}
	ratios := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.Success[0] > 0 {
			ratios = append(ratios, r.Success[3]/r.Success[0])
		}
	}
	b.ReportMetric(experiments.GeoMean(ratios), "success-ratio")
}

// benchmarkSweep runs the Figs. 9-11 sweep once.
func benchmarkSweep(b *testing.B) []experiments.BenchResult {
	b.Helper()
	rs, err := experiments.BenchmarkSweep(experiments.DefaultModel(), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkFig9 regenerates the benchmark success sweep (11 benchmarks x
// 4 topologies x 2 pipelines) and reports the Johannesburg geomean success
// pair (paper: 2.2% -> 9.8%).
func BenchmarkFig9(b *testing.B) {
	skipInShort(b)
	var rs []experiments.BenchResult
	for i := 0; i < b.N; i++ {
		rs = benchmarkSweep(b)
	}
	base := experiments.GeoMeansByTopology(rs, func(r experiments.BenchResult) float64 { return r.BaselineSuccess })
	trios := experiments.GeoMeansByTopology(rs, func(r experiments.BenchResult) float64 { return r.TriosSuccess })
	b.ReportMetric(base["ibmq-johannesburg"], "ibmq-baseline-success")
	b.ReportMetric(trios["ibmq-johannesburg"], "ibmq-trios-success")
}

// BenchmarkFig10 reports the geomean two-qubit gate-count reduction per
// topology (paper: ibmq 37%, grid 36%, line 48%, clusters 26%).
func BenchmarkFig10(b *testing.B) {
	skipInShort(b)
	var rs []experiments.BenchResult
	for i := 0; i < b.N; i++ {
		rs = benchmarkSweep(b)
	}
	ratios := experiments.GeoMeansByTopology(rs, func(r experiments.BenchResult) float64 {
		if r.BaselineCNOTs == 0 {
			return 0
		}
		return float64(r.TriosCNOTs) / float64(r.BaselineCNOTs)
	})
	b.ReportMetric(100*(1-ratios["ibmq-johannesburg"]), "ibmq-reduction-pct")
	b.ReportMetric(100*(1-ratios["line-20"]), "line-reduction-pct")
}

// BenchmarkFig11 reports the geomean success ratio per topology
// (paper: ibmq 4.4x, grid 3.7x, line 31x, clusters 2.3x).
func BenchmarkFig11(b *testing.B) {
	skipInShort(b)
	var rs []experiments.BenchResult
	for i := 0; i < b.N; i++ {
		rs = benchmarkSweep(b)
	}
	ratios := experiments.GeoMeansByTopology(rs, func(r experiments.BenchResult) float64 { return r.Ratio })
	b.ReportMetric(ratios["ibmq-johannesburg"], "ibmq-ratio")
	b.ReportMetric(ratios["line-20"], "line-ratio")
	b.ReportMetric(ratios["clusters-5x4"], "clusters-ratio")
}

// BenchmarkFig12 regenerates the error-rate sensitivity sweep and reports
// the ratio at current error rates and at the 20x setting for one deep
// benchmark (the paper's curves decay exponentially with improvement).
func BenchmarkFig12(b *testing.B) {
	skipInShort(b)
	base := noise.Johannesburg0819()
	base.ReadoutError = 0
	base.Coherence = noise.CoherencePerQubit
	factors := []float64{1, 20, 100}
	var points []experiments.SensitivityPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Sensitivity(base, factors, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Benchmark == "grovers-9" && p.Factor == 20 {
			b.ReportMetric(p.Ratio, "grover-ratio-at-20x")
		}
	}
}
