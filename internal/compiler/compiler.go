// Package compiler assembles the decomposition, mapping, and routing passes
// into the two pipeline shapes compared by the paper (Fig. 2):
//
//   - Conventional: decompose everything to 1- and 2-qubit gates first, then
//     map and route pairs (the Qiskit-like baseline).
//   - Trios: decompose down to Toffolis, map and route trios as units, then
//     run the mapping-aware second decomposition.
//
// Both pipelines are expressed as pass lists run by the PassManager engine
// (passmgr.go), which instruments every stage; the Batch engine (batch.go)
// fans whole (benchmark x device x pipeline x seed) job sets across a worker
// pool with a keyed cache that deduplicates repeated decompositions.
package compiler

import (
	"context"
	"fmt"
	"math/rand"

	"trios/internal/circuit"
	"trios/internal/decompose"
	"trios/internal/device"
	"trios/internal/layout"
	"trios/internal/route"
	"trios/internal/topo"
)

// Pipeline selects the overall compilation structure.
type Pipeline int

const (
	// Conventional is the decompose-first baseline (Fig. 2a).
	Conventional Pipeline = iota
	// TriosPipeline is the split-decomposition flow (Fig. 2b).
	TriosPipeline
)

func (p Pipeline) String() string {
	if p == TriosPipeline {
		return "trios"
	}
	return "baseline"
}

// Placement selects the initial-mapping strategy.
type Placement int

const (
	// PlaceIdentity maps logical qubit i to physical qubit i.
	PlaceIdentity Placement = iota
	// PlaceGreedy uses the interaction-aware greedy mapper.
	PlaceGreedy
	// PlaceRandom uses a seeded random placement (the paper's Toffoli
	// experiments place inputs at random locations to emulate mid-circuit
	// conditions).
	PlaceRandom
)

// RouterKind selects the routing strategy within a pipeline.
type RouterKind int

const (
	// RouteDirect uses deterministic shortest-path routing with stochastic
	// tie-breaks — the strongest heuristic in this repo.
	RouteDirect RouterKind = iota
	// RouteStochastic uses the Qiskit-0.14-style randomized layer router,
	// the era-faithful baseline the paper measures against. In the Trios
	// pipeline only two-qubit gates route stochastically; trios still use
	// the deterministic meeting-point strategy.
	RouteStochastic
	// RouteLookahead uses the SABRE-style lookahead router representing the
	// prior-art class the paper's §3 argues only treats the symptoms of
	// premature decomposition.
	RouteLookahead
)

func (r RouterKind) String() string {
	switch r {
	case RouteStochastic:
		return "stochastic"
	case RouteLookahead:
		return "lookahead"
	}
	return "direct"
}

// Options configures a compilation.
type Options struct {
	Pipeline Pipeline
	// Router picks the routing strategy (default RouteDirect).
	Router RouterKind
	// Mode picks the Toffoli decomposition. For the conventional pipeline it
	// is applied up front (the paper's "Qiskit (baseline)" uses Six and
	// "Qiskit (8-CNOT Toffoli)" Eight). For Trios it drives the second,
	// mapping-aware pass: Auto (default) chooses per placement; Six forces
	// the 6-CNOT form and relies on a fixup routing pass for missing edges.
	Mode decompose.ToffoliMode
	// Placement picks the initial mapping strategy; InitialLayout overrides
	// it with an explicit logical->physical assignment when non-nil.
	Placement     Placement
	InitialLayout []int
	// Seed drives stochastic routing tie-breaks and random placement.
	Seed int64
	// Optimize runs the worklist rewrite engine (internal/rewrite), which
	// saturates a declarative rule table to a fixpoint: inverse
	// cancellation across commuting windows, rotation merging, CP/CZ
	// canonicalization, SWAP and Toffoli absorptions, and Hadamard
	// conjugations (§2.4). It runs on the input, again on the routed
	// circuit (adjacency-gated so rewrites never un-route), and on the
	// lowered output interleaved with 1q consolidation.
	Optimize bool
	// Calibration, when non-nil, is the device characterization driving the
	// compile: unless CostModel overrides it, layout and routing weigh edges
	// by the calibration's -log CNOT success rates, and the pipeline ends
	// with a fidelity pass filling Result.EstimatedSuccess and
	// Result.Makespan from the same data.
	Calibration *device.Calibration
	// CostModel overrides the cost policy derived from Calibration:
	// device.Uniform{} compiles exactly like a calibration-less run (byte-
	// identical output) while still reporting calibrated fidelity stats —
	// the control arm of every noise-aware comparison.
	CostModel device.CostModel
}

// costModel resolves the effective cost model: an explicit CostModel wins,
// then the calibration's shared noise model, then Uniform (hop counts).
func (o Options) costModel() device.CostModel {
	switch {
	case o.CostModel != nil:
		return o.CostModel
	case o.Calibration != nil:
		return device.NoiseFor(o.Calibration)
	default:
		return device.Uniform{}
	}
}

// Result carries the compiled program and the bookkeeping needed to verify
// and evaluate it.
type Result struct {
	// Input is the logical circuit as given.
	Input *circuit.Circuit
	// Physical is the final compiled circuit in the {u1,u2,u3,cx} basis on
	// device qubits.
	Physical *circuit.Circuit
	// Initial[v] is the physical qubit logical v starts on; Final[v] where
	// it ends after routing SWAPs. Both cover all device qubits (padding
	// virtual qubits beyond the program's).
	Initial []int
	Final   []int
	// SwapsAdded counts routing SWAPs before their 3-CX expansion.
	SwapsAdded int
	Graph      *topo.Graph
	// Passes records per-pass wall-clock and gate-count metrics for the
	// pipeline that produced this result. Cached front passes contribute
	// the metrics of the run that populated the cache.
	Passes []PassMetric
	// CostModel names the cost model that drove layout and routing
	// ("uniform" or "noise:<calibration>").
	CostModel string
	// EstimatedSuccess and Makespan are the fidelity block, filled when
	// Options.Calibration is set: the closed-form per-edge/per-qubit success
	// probability of one execution and the ASAP makespan (us) of the
	// compiled circuit under the calibration's gate times.
	EstimatedSuccess float64
	Makespan         float64
}

// TwoQubitGates returns the compiled two-qubit gate count, the paper's
// hardware-independent quality metric.
func (r *Result) TwoQubitGates() int { return r.Physical.TwoQubitCount() }

// Compile runs the selected pipeline on the input circuit for the device.
// The pipeline is assembled from named passes (see passmgr.go) and every
// stage's wall-clock and gate-count deltas land in Result.Passes.
func Compile(input *circuit.Circuit, g *topo.Graph, opts Options) (*Result, error) {
	return compileFrom(context.Background(), nil, nil, Job{Input: input, Graph: g, Opts: opts})
}

func initialLayout(c *circuit.Circuit, g *topo.Graph, opts Options, cm device.CostModel) (*layout.Layout, error) {
	if opts.InitialLayout != nil {
		v2p := make([]int, g.NumQubits())
		used := make([]bool, g.NumQubits())
		if len(opts.InitialLayout) > g.NumQubits() {
			return nil, fmt.Errorf("compiler: initial layout longer than device")
		}
		for v, p := range opts.InitialLayout {
			if p < 0 || p >= g.NumQubits() || used[p] {
				return nil, fmt.Errorf("compiler: bad initial layout entry %d->%d", v, p)
			}
			v2p[v] = p
			used[p] = true
		}
		next := 0
		for v := len(opts.InitialLayout); v < g.NumQubits(); v++ {
			for used[next] {
				next++
			}
			v2p[v] = next
			used[next] = true
		}
		return layout.FromVirtualToPhys(v2p)
	}
	switch opts.Placement {
	case PlaceGreedy:
		// Under a noise cost model, placement is noise-aware too (§4's
		// pairing of noise-aware mapping and routing): distances come from
		// the model's memoized weighted-path oracle. Uniform's nil oracle
		// selects the hop-count tables.
		return layout.GreedyWeighted(c, g, cm.Oracle(g))
	case PlaceRandom:
		return layout.Random(g.NumQubits(), rand.New(rand.NewSource(opts.Seed))), nil
	default:
		return layout.Identity(g.NumQubits()), nil
	}
}

// pickRouter builds the routing pass for the selected strategy; trioAware
// is set by the Trios pipeline, whose router must accept intact CCX gates.
// Every router receives the cost model's edge weights and its memoized
// weighted-path tables; under Uniform both are nil and every router runs its
// hop-count code path.
func pickRouter(opts Options, trioAware bool, cm device.CostModel, g *topo.Graph) (route.Router, error) {
	weight, oracle := routerWeights(cm, g)
	switch opts.Router {
	case RouteDirect:
		if trioAware {
			return &route.Trios{Seed: opts.Seed, Weight: weight, Oracle: oracle}, nil
		}
		return &route.Baseline{Seed: opts.Seed, Weight: weight, Oracle: oracle}, nil
	case RouteStochastic:
		return &route.Stochastic{Seed: opts.Seed, TrioAware: trioAware, Weight: weight, Oracle: oracle}, nil
	case RouteLookahead:
		return &route.Lookahead{Seed: opts.Seed, TrioAware: trioAware, Weight: weight, Oracle: oracle}, nil
	}
	return nil, fmt.Errorf("compiler: unknown router kind %d", int(opts.Router))
}

// Verify checks that a compiled result respects the device coupling graph:
// every cx acts on a connected pair and only basis gates appear.
func (r *Result) Verify() error {
	for i, g := range r.Physical.Gates {
		switch g.Name {
		case circuit.U1, circuit.U2, circuit.U3, circuit.Measure, circuit.Barrier:
		case circuit.CX:
			if !r.Graph.Connected(g.Qubits[0], g.Qubits[1]) {
				return fmt.Errorf("compiler: gate %d cx(%d,%d) not on a coupling of %s", i, g.Qubits[0], g.Qubits[1], r.Graph.Name())
			}
		default:
			return fmt.Errorf("compiler: gate %d has non-basis gate %v", i, g.Name)
		}
	}
	return nil
}
