package noise

import (
	"fmt"
	"math"
	"math/rand"

	"trios/internal/circuit"
	"trios/internal/sched"
	"trios/internal/topo"
)

// EdgeMap carries per-coupling two-qubit error rates, modeling the
// heterogeneous daily calibration data IBM publishes (§5.2: "error rates
// reported by IBM obtained via randomized benchmarking on a daily basis").
// It feeds the paper's noise-aware routing extension (§4): routing edges are
// weighted by -log of the CNOT success rate so shortest weighted paths
// maximize path success probability.
type EdgeMap struct {
	name string
	errs map[[2]int]float64
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// UniformEdgeMap assigns the same error to every coupling.
func UniformEdgeMap(g *topo.Graph, err float64) *EdgeMap {
	m := &EdgeMap{name: g.Name(), errs: make(map[[2]int]float64, g.NumEdges())}
	for _, e := range g.Edges() {
		m.errs[e] = err
	}
	return m
}

// SyntheticCalibration draws per-edge errors around mean with a log-normal
// spread (sigma in log-space), then degrades a few randomly chosen "hot"
// edges by 10x — the shape real calibration data exhibits. Deterministic in
// seed.
func SyntheticCalibration(g *topo.Graph, mean, sigma float64, hotEdges int, seed int64) *EdgeMap {
	rng := rand.New(rand.NewSource(seed))
	m := &EdgeMap{name: g.Name(), errs: make(map[[2]int]float64, g.NumEdges())}
	edges := g.Edges()
	for _, e := range edges {
		v := mean * math.Exp(sigma*rng.NormFloat64())
		if v > 0.5 {
			v = 0.5
		}
		m.errs[e] = v
	}
	for i := 0; i < hotEdges && len(edges) > 0; i++ {
		e := edges[rng.Intn(len(edges))]
		v := m.errs[e] * 10
		if v > 0.5 {
			v = 0.5
		}
		m.errs[e] = v
	}
	return m
}

// Error returns the two-qubit error rate of a coupling.
func (m *EdgeMap) Error(a, b int) (float64, error) {
	v, ok := m.errs[edgeKey(a, b)]
	if !ok {
		return 0, fmt.Errorf("noise: (%d,%d) is not a coupling of %s", a, b, m.name)
	}
	return v, nil
}

// SetError overrides one coupling's error rate.
func (m *EdgeMap) SetError(a, b int, err float64) {
	m.errs[edgeKey(a, b)] = err
}

// SuccessProbabilityEdges is SuccessProbability with per-edge two-qubit
// errors: every CX is charged its own coupling's error rate instead of the
// device average. The circuit must already be compiled (only basis gates on
// coupled pairs); SWAPs count as 3 uses of their edge.
func SuccessProbabilityEdges(c *circuit.Circuit, p Params, m *EdgeMap) (float64, error) {
	if p.T1 <= 0 || p.T2 <= 0 {
		return 0, fmt.Errorf("noise: non-positive coherence time")
	}
	logP := 0.0
	oneQ, meas := 0, 0
	for i, g := range c.Gates {
		switch {
		case g.Name == circuit.Barrier:
		case g.Name == circuit.Measure:
			meas++
		case g.IsTwoQubit():
			e, err := m.Error(g.Qubits[0], g.Qubits[1])
			if err != nil {
				return 0, fmt.Errorf("gate %d: %w", i, err)
			}
			uses := 1
			if g.Name == circuit.SWAP {
				uses = 3
			}
			logP += float64(uses) * math.Log(1-e)
		case len(g.Qubits) == 1:
			oneQ++
		default:
			return 0, fmt.Errorf("noise: gate %d (%v) not supported by the per-edge model; compile first", i, g.Name)
		}
	}
	clock, err := sched.Run(c, p.Times)
	if err != nil {
		return 0, err
	}
	d := clock.Makespan()
	logP += float64(oneQ)*math.Log(1-p.OneQubitError) + float64(meas)*math.Log(1-p.ReadoutError)
	exponent := d/p.T1 + d/p.T2
	if p.Coherence == CoherencePerQubit {
		exponent *= float64(activeQubits(clock, c.NumQubits))
	}
	return math.Exp(logP - exponent), nil
}
