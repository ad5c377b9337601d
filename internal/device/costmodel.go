package device

import (
	"sync"

	"trios/internal/topo"
)

// CostModel is the "what does an edge cost" policy behind layout and
// routing. Two implementations ship: Uniform (hop counts — noise-blind) and
// Noise (edge weights from a Calibration's -log CNOT success rates, memoized
// into topo.WeightedOracle tables per (graph, calibration) pair).
type CostModel interface {
	// Name labels the model in stats and reports ("uniform", "noise:...").
	Name() string
	// Weight returns the routing edge-weight function, or nil to select
	// hop-count routing. A nil Weight is the Uniform contract: every
	// consumer must fall back to its unweighted code path, which is what
	// keeps Uniform compilations bit-identical to noise-blind ones.
	Weight() func(a, b int) float64
	// Oracle returns the weighted-path oracle for g (nil when Weight is
	// nil). Implementations memoize: the Dijkstra sweep runs once per
	// (graph, model) pair and every subsequent query is a table lookup.
	Oracle(g *topo.Graph) *topo.WeightedOracle
	// CacheKey returns a canonical identity for content-addressed compile
	// caching.
	CacheKey() string
}

// Uniform is the noise-blind cost model: every edge costs one hop. Routing
// and placement under it are byte-identical to compilations that carry no
// cost model at all — it exists so "no calibration" and "calibration present
// but ignored for routing" are the same code path, differing only in stats.
type Uniform struct{}

// Name implements CostModel.
func (Uniform) Name() string { return "uniform" }

// Weight implements CostModel: nil selects hop-count routing.
func (Uniform) Weight() func(a, b int) float64 { return nil }

// Oracle implements CostModel: the hop-distance oracle lives on the Graph
// itself, so Uniform has nothing to build.
func (Uniform) Oracle(g *topo.Graph) *topo.WeightedOracle { return nil }

// CacheKey implements CostModel.
func (Uniform) CacheKey() string { return "uniform" }

// oracleCache memoizes one WeightedOracle per graph for a fixed weight
// function. Keying on *topo.Graph identity is deliberate: graphs are
// documented read-only once queried, and long-lived callers (the daemon, the
// batch engine) already share one Graph per device.
type oracleCache struct {
	weight func(a, b int) float64
	mu     sync.Mutex
	m      map[*topo.Graph]*topo.WeightedOracle
}

func (oc *oracleCache) oracle(g *topo.Graph) *topo.WeightedOracle {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if o, ok := oc.m[g]; ok {
		return o
	}
	if oc.m == nil {
		oc.m = make(map[*topo.Graph]*topo.WeightedOracle)
	}
	o := topo.NewWeightedOracle(g, oc.weight)
	oc.m[g] = o
	return o
}

// Noise is the calibration-driven cost model: edges weigh -log(1 - e2), so
// minimum-weight paths maximize CNOT success probability (§4).
type Noise struct {
	cal *Calibration
	oc  oracleCache
}

// NewNoise builds the noise-aware cost model for a calibration.
func NewNoise(cal *Calibration) *Noise {
	n := &Noise{cal: cal}
	n.oc.weight = cal.RouteWeight()
	return n
}

// Calibration returns the model's underlying calibration.
func (n *Noise) Calibration() *Calibration { return n.cal }

// Name implements CostModel.
func (n *Noise) Name() string { return "noise:" + n.cal.Name }

// Weight implements CostModel.
func (n *Noise) Weight() func(a, b int) float64 { return n.oc.weight }

// Oracle implements CostModel, memoizing per graph.
func (n *Noise) Oracle(g *topo.Graph) *topo.WeightedOracle { return n.oc.oracle(g) }

// CacheKey implements CostModel: the calibration's content digest, so two
// calibrations with equal values share cached artifacts and any difference
// separates them.
func (n *Noise) CacheKey() string { return "noise:" + n.cal.Digest() }

// noiseModels memoizes the canonical Noise model per Calibration identity,
// bounded so a long-lived process that keeps loading fresh calibrations from
// disk (new pointer every day) cannot accumulate oracle tables without
// limit: past the cap the map resets — dropped entries are only
// memoization, and callers already holding a *Noise keep working.
var noiseModels struct {
	mu sync.Mutex
	m  map[*Calibration]*Noise
}

// noiseModelCap bounds the memo; registry calibrations alone never come
// close, so a reset only happens under a churn of ad-hoc calibrations.
const noiseModelCap = 64

// NoiseFor returns the shared Noise model for cal: every compilation naming
// one Calibration (registry calibrations are singletons) shares one model
// and therefore one set of per-graph weighted-path tables, instead of paying
// the Dijkstra sweep per compile.
func NoiseFor(cal *Calibration) *Noise {
	noiseModels.mu.Lock()
	defer noiseModels.mu.Unlock()
	if m, ok := noiseModels.m[cal]; ok {
		return m
	}
	if noiseModels.m == nil || len(noiseModels.m) >= noiseModelCap {
		noiseModels.m = make(map[*Calibration]*Noise)
	}
	m := NewNoise(cal)
	noiseModels.m[cal] = m
	return m
}
