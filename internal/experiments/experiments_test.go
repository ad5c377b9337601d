package experiments

import (
	"math"
	"strings"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/noise"
	"trios/internal/topo"
)

func TestRandomTripletsDistinctAndSeeded(t *testing.T) {
	g := topo.Johannesburg()
	a := RandomTriplets(g, 20, 5)
	b := RandomTriplets(g, 20, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different triplets")
		}
		if a[i][0] == a[i][1] || a[i][1] == a[i][2] || a[i][0] == a[i][2] {
			t.Fatalf("triplet %v has duplicates", a[i])
		}
	}
	c := RandomTriplets(g, 20, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical triplet sets")
	}
}

func TestTripletDistanceMatchesPaperLabels(t *testing.T) {
	g := topo.Johannesburg()
	// Labels from the paper's Figure 6 x-axis.
	cases := []struct {
		trip [3]int
		want int
	}{
		{[3]int{6, 17, 3}, 10},
		{[3]int{3, 1, 2}, 2},
		{[3]int{17, 16, 18}, 2},
		{[3]int{1, 3, 4}, 3},
		{[3]int{2, 5, 3}, 4},
	}
	for _, c := range cases {
		if got := TripletDistance(g, c.trip); got != c.want {
			t.Errorf("distance%v = %d, want %d", c.trip, got, c.want)
		}
	}
}

func TestToffoliExperimentShape(t *testing.T) {
	g := topo.Johannesburg()
	trips := RandomTriplets(g, 6, 3)
	rs, err := ToffoliExperiment(g, trips, noise.Johannesburg0819(), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		for ci := range ToffoliConfigs {
			if r.CNOTs[ci] < 6 {
				t.Errorf("triplet %v config %d: %d CNOTs < 6", r.Triplet, ci, r.CNOTs[ci])
			}
			if r.Success[ci] <= 0 || r.Success[ci] >= 1 {
				t.Errorf("triplet %v config %d: success %v out of range", r.Triplet, ci, r.Success[ci])
			}
			if r.Sampled[ci] < 0 || r.Sampled[ci] > 1 {
				t.Errorf("sampled out of range: %v", r.Sampled[ci])
			}
		}
	}
}

func TestToffoliExperimentTriosWinsOnAverage(t *testing.T) {
	g := topo.Johannesburg()
	trips := RandomTriplets(g, 12, 9)
	rs, err := ToffoliExperiment(g, trips, noise.Johannesburg0819(), 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	baseCnots := GeoMeanColumn(rs, CNOTsAsFloats, 0)
	triosCnots := GeoMeanColumn(rs, CNOTsAsFloats, 3)
	if triosCnots >= baseCnots {
		t.Errorf("trios geomean CNOTs %.1f >= baseline %.1f", triosCnots, baseCnots)
	}
	baseSucc := GeoMeanColumn(rs, SuccessAsFloats, 0)
	triosSucc := GeoMeanColumn(rs, SuccessAsFloats, 3)
	if triosSucc <= baseSucc {
		t.Errorf("trios geomean success %.3f <= baseline %.3f", triosSucc, baseSucc)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := GeoMean([]float64{1, 0}); g != 0 {
		t.Errorf("geomean with zero = %v", g)
	}
}

func TestCompileBenchmarkAndEvaluate(t *testing.T) {
	b := mustBench(t, "cnx_dirty-11")
	pairs, err := compilePairs([]benchmarks.Benchmark{b}, []*topo.Graph{topo.Grid5x4()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pairs[0].Evaluate(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if r.TriosCNOTs >= r.BaselineCNOTs {
		t.Errorf("trios %d CNOTs >= baseline %d on a toffoli benchmark", r.TriosCNOTs, r.BaselineCNOTs)
	}
	if r.Ratio <= 1 {
		t.Errorf("success ratio %v <= 1", r.Ratio)
	}
	if r.ReductionPct <= 0 {
		t.Errorf("reduction %v <= 0", r.ReductionPct)
	}
}

func TestToffoliFreeBenchmarkNeutral(t *testing.T) {
	b := mustBench(t, "bv-20")
	pairs, err := compilePairs([]benchmarks.Benchmark{b}, []*topo.Graph{topo.Johannesburg()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pairs[0].Evaluate(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineCNOTs != r.TriosCNOTs {
		t.Errorf("bv should compile identically: %d vs %d", r.BaselineCNOTs, r.TriosCNOTs)
	}
	if math.Abs(r.Ratio-1) > 1e-9 {
		t.Errorf("bv ratio = %v, want 1", r.Ratio)
	}
}

func TestSensitivityMonotoneDecay(t *testing.T) {
	base := noise.Johannesburg0819()
	base.ReadoutError = 0
	base.Coherence = noise.CoherencePerQubit
	points, err := Sensitivity(base, []float64{1, 10, 100}, 7)
	if err != nil {
		t.Fatal(err)
	}
	byBench := map[string][]SensitivityPoint{}
	for _, p := range points {
		byBench[p.Benchmark] = append(byBench[p.Benchmark], p)
	}
	if len(byBench) != 8 {
		t.Fatalf("expected 8 toffoli benchmarks, got %d", len(byBench))
	}
	for name, ps := range byBench {
		for i := 1; i < len(ps); i++ {
			if ps[i].Ratio > ps[i-1].Ratio*1.0001 {
				t.Errorf("%s: ratio rose from %.3g to %.3g as errors improved",
					name, ps[i-1].Ratio, ps[i].Ratio)
			}
		}
		last := ps[len(ps)-1]
		if last.Ratio < 0.999 {
			t.Errorf("%s: ratio %v < 1 at factor %v (trios should never lose)", name, last.Ratio, last.Factor)
		}
	}
}

func TestReportWritersProduceOutput(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable1(&sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteFig1(&sb, 1); err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	trips := RandomTriplets(g, 3, 1)
	rs, err := ToffoliExperiment(g, trips, noise.Johannesburg0819(), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	WriteFig6(&sb, rs)
	WriteFig7(&sb, rs)
	WriteFig8(&sb, rs)

	b := mustBench(t, "cnx_inplace-4")
	pairs, err := compilePairs([]benchmarks.Benchmark{b}, []*topo.Graph{topo.Line20()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	br, err := pairs[0].Evaluate(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	WriteFig9(&sb, []BenchResult{br})
	WriteFig10(&sb, []BenchResult{br})
	WriteFig11(&sb, []BenchResult{br})
	WriteFig12(&sb, []SensitivityPoint{{Benchmark: b.Name, Factor: 1, Ratio: 2}})

	out := sb.String()
	for _, want := range []string{"Table 1", "Figure 1", "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestToffoliAcrossTopologies(t *testing.T) {
	rs, err := ToffoliAcrossTopologies(6, noise.Johannesburg0819(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("topologies = %d", len(rs))
	}
	var line, clusters float64
	for _, r := range rs {
		if r.Reduction <= 0 {
			t.Errorf("%s: reduction %.1f%% <= 0", r.Topology, r.Reduction)
		}
		for ci, v := range r.GeoCNOTs {
			if v < 6 {
				t.Errorf("%s config %d: geomean %v < 6", r.Topology, ci, v)
			}
		}
		switch r.Topology {
		case "line-20":
			line = r.Reduction
		case "clusters-5x4":
			clusters = r.Reduction
		}
	}
	if line <= clusters {
		t.Errorf("line reduction %.1f%% should exceed clusters %.1f%% (sparser connectivity gains more)", line, clusters)
	}
}

func TestRelativePhaseAlwaysWins(t *testing.T) {
	rs, err := RelativePhase(DefaultModel(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 { // 2 benchmarks x 4 topologies
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if r.RPCNOTs >= r.ExactCNOTs {
			t.Errorf("%s on %s: rp %d >= exact %d", r.Benchmark, r.Topology, r.RPCNOTs, r.ExactCNOTs)
		}
		if r.RPSuccess <= r.ExactSuccess {
			t.Errorf("%s on %s: rp success %v <= exact %v", r.Benchmark, r.Topology, r.RPSuccess, r.ExactSuccess)
		}
	}
}

func TestGeoMeansByTopologySkipsToffoliFree(t *testing.T) {
	rs := []BenchResult{
		{Benchmark: "a", HasToffolis: true, Topology: "t", Ratio: 4},
		{Benchmark: "b", HasToffolis: false, Topology: "t", Ratio: 100},
		{Benchmark: "c", HasToffolis: true, Topology: "t", Ratio: 1},
	}
	m := GeoMeansByTopology(rs, func(r BenchResult) float64 { return r.Ratio })
	if math.Abs(m["t"]-2) > 1e-12 {
		t.Errorf("geomean = %v, want 2 (toffoli-free excluded)", m["t"])
	}
}

func TestDefaultFactorsLogSpaced(t *testing.T) {
	fs := DefaultFactors()
	if fs[0] != 1 || math.Abs(fs[len(fs)-1]-100) > 1e-9 {
		t.Errorf("factors = %v", fs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Error("factors not increasing")
		}
	}
}

func mustBench(t *testing.T, name string) benchmarks.Benchmark {
	t.Helper()
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
