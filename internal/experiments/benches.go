package experiments

import (
	"fmt"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/noise"
	"trios/internal/topo"
)

// BenchResult is one (benchmark, topology) cell of Figures 9-11: compiled
// two-qubit gate counts and simulated success for baseline and Trios.
type BenchResult struct {
	Benchmark   string
	HasToffolis bool
	Topology    string

	BaselineCNOTs int
	TriosCNOTs    int
	// ReductionPct is Fig. 10's metric: percent fewer two-qubit gates.
	ReductionPct float64

	BaselineSuccess float64
	TriosSuccess    float64
	// Ratio is Fig. 11's metric: p_trios / p_baseline.
	Ratio float64
}

// CompiledPair holds both pipelines' outputs for one benchmark/topology so
// the sensitivity sweep can re-evaluate success without recompiling.
type CompiledPair struct {
	Benchmark benchmarks.Benchmark
	Topology  *topo.Graph
	Baseline  *compiler.Result
	Trios     *compiler.Result
}

// pairOptions is the era-faithful configuration the paper compiled with:
// Qiskit 0.14's defaults were TrivialLayout (identity placement) plus
// StochasticSwap; the paper's Trios implementation grafts trio routing onto
// the same pass.
func pairOptions(pipe compiler.Pipeline, seed int64) compiler.Options {
	return compiler.Options{
		Pipeline:  pipe,
		Router:    compiler.RouteStochastic,
		Placement: compiler.PlaceIdentity,
		Seed:      seed,
	}
}

// compilePairs fans the (benchmark x topology x pipeline) grid across the
// batch engine and reassembles the per-cell pipeline pairs in grid order.
// Each benchmark circuit is built once and shared by all its jobs, so the
// engine's front cache decomposes it once per pipeline instead of once per
// (topology, pipeline).
func compilePairs(bs []benchmarks.Benchmark, topos []*topo.Graph, seed int64) ([]*CompiledPair, error) {
	circuits := make([]*circuit.Circuit, len(bs))
	for i, b := range bs {
		c, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		circuits[i] = c
	}
	var jobs []compiler.Job
	for i, b := range bs {
		for _, g := range topos {
			for _, pipe := range []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline} {
				jobs = append(jobs, compiler.Job{
					ID:    fmt.Sprintf("%s %v on %s", b.Name, pipe, g.Name()),
					Input: circuits[i],
					Graph: g,
					Opts:  pairOptions(pipe, seed),
				})
			}
		}
	}
	rs, err := runBatch(jobs)
	if err != nil {
		return nil, err
	}
	var pairs []*CompiledPair
	j := 0
	for _, b := range bs {
		for _, g := range topos {
			base, trios := rs[j], rs[j+1]
			j += 2
			if base.Err != nil {
				return nil, fmt.Errorf("experiments: %s baseline on %s: %w", b.Name, g.Name(), base.Err)
			}
			if trios.Err != nil {
				return nil, fmt.Errorf("experiments: %s trios on %s: %w", b.Name, g.Name(), trios.Err)
			}
			if err := base.Result.Verify(); err != nil {
				return nil, err
			}
			if err := trios.Result.Verify(); err != nil {
				return nil, err
			}
			pairs = append(pairs, &CompiledPair{Benchmark: b, Topology: g, Baseline: base.Result, Trios: trios.Result})
		}
	}
	return pairs, nil
}

// Evaluate turns a compiled pair into a BenchResult under a noise model.
func (p *CompiledPair) Evaluate(model noise.Params) (BenchResult, error) {
	bs, err := noise.SuccessProbability(p.Baseline.Physical, model)
	if err != nil {
		return BenchResult{}, err
	}
	ts, err := noise.SuccessProbability(p.Trios.Physical, model)
	if err != nil {
		return BenchResult{}, err
	}
	bc := p.Baseline.TwoQubitGates()
	tc := p.Trios.TwoQubitGates()
	r := BenchResult{
		Benchmark:       p.Benchmark.Name,
		HasToffolis:     p.Benchmark.HasToffolis,
		Topology:        p.Topology.Name(),
		BaselineCNOTs:   bc,
		TriosCNOTs:      tc,
		BaselineSuccess: bs,
		TriosSuccess:    ts,
	}
	if bc > 0 {
		r.ReductionPct = 100 * float64(bc-tc) / float64(bc)
	}
	if bs > 0 {
		r.Ratio = ts / bs
	}
	return r, nil
}

// BenchmarkSweep compiles all Table-1 benchmarks on all four paper
// topologies and evaluates them under the given noise model (Figures 9-11
// use Johannesburg errors improved 20x).
func BenchmarkSweep(model noise.Params, seed int64) ([]BenchResult, error) {
	pairs, err := CompileAllBenchmarks(seed)
	if err != nil {
		return nil, err
	}
	out := make([]BenchResult, 0, len(pairs))
	for _, p := range pairs {
		r, err := p.Evaluate(model)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// CompileAllBenchmarks compiles every benchmark x topology pair once,
// fanning the whole grid across the batch engine's worker pool.
func CompileAllBenchmarks(seed int64) ([]*CompiledPair, error) {
	return compilePairs(benchmarks.All(), topo.PaperTopologies(), seed)
}

// GeoMeansByTopology aggregates a sweep the way the paper's figure captions
// do: geometric means over the Toffoli-bearing benchmarks, per topology.
// metric extracts the value to average from each result.
func GeoMeansByTopology(results []BenchResult, metric func(BenchResult) float64) map[string]float64 {
	byTopo := map[string][]float64{}
	for _, r := range results {
		if !r.HasToffolis {
			continue
		}
		v := metric(r)
		if v > 0 {
			byTopo[r.Topology] = append(byTopo[r.Topology], v)
		}
	}
	out := make(map[string]float64, len(byTopo))
	for k, vs := range byTopo {
		out[k] = GeoMean(vs)
	}
	return out
}
