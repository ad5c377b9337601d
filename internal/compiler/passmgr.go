// Pass-manager engine: the two pipeline shapes of compiler.go are expressed
// as ordered lists of named, instrumented passes over a shared PassContext.
// Composition replaces the former hard-coded pipeline functions, so new
// pipeline variants are assembled from the same pass vocabulary (decompose,
// layout, route, optimize, schedule, stats) instead of new monoliths, and
// every compilation records per-pass wall-clock and gate-count metrics.
// The pass lists are the only implementation of the pipeline: Compile runs
// them on the whole circuit and StreamCompile (stream.go) window by window.
package compiler

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"trios/internal/circuit"
	"trios/internal/decompose"
	"trios/internal/device"
	"trios/internal/layout"
	"trios/internal/noise"
	"trios/internal/obs"
	"trios/internal/optimize"
	"trios/internal/rewrite"
	"trios/internal/route"
	"trios/internal/topo"
)

// PassContext carries one compilation through a pass pipeline: the working
// circuit, the device graph, the mapping bookkeeping that routing passes
// maintain, and the per-pass metrics the manager accumulates.
type PassContext struct {
	// Ctx, when non-nil, makes the pipeline cancellation-aware: the manager
	// checks it between passes and aborts with the context's error instead of
	// starting the next stage. Individual passes are not interrupted — a
	// cancelled compilation finishes its current pass and stops at the next
	// boundary, so partially-transformed circuits never escape.
	Ctx context.Context
	// span, when non-nil, is the parent of each pass's pass:<name> span,
	// which shares its start and end with the pass's PassMetric.
	span *obs.Span
	// Graph is the target coupling graph. It is read-only and may be shared
	// across concurrent compilations.
	Graph *topo.Graph
	// Opts is the configuration the pipeline was built from.
	Opts Options
	// Cost is the resolved cost model (see Options.costModel), fixed once
	// per compilation so the layout, routing, and fixup passes all score
	// against the same memoized tables.
	Cost device.CostModel
	// Circuit is the working circuit; passes replace it as they transform
	// the program. Passes must treat the incoming circuit as immutable (it
	// may be shared with concurrent compilations via the batch front cache).
	Circuit *circuit.Circuit
	// Init is the initial virtual->physical placement, set by the layout
	// pass; Final tracks the placement after the main routing pass's SWAPs.
	// A fixup pass routes over physical positions in its own session, whose
	// movement finalPlacement composes on top of Final.
	Init  *layout.Layout
	Final *layout.Layout
	// SwapsAdded accumulates routing SWAPs (before 3-CX expansion).
	SwapsAdded int
	// main and fixup are the incremental routing sessions of the main and
	// fixup routing passes. A pass starts its session on the first circuit
	// it routes and feeds it every later one, so a context fed a program
	// window by window routes it exactly as one circuit; Compile is such a
	// context fed one window.
	main, fixup *route.Session
	// Metrics collects one entry per executed pass.
	Metrics []PassMetric
	// EstimatedSuccess and Makespan are filled by the fidelity pass when the
	// compilation carries a calibration.
	EstimatedSuccess float64
	Makespan         float64
}

// PassMetric records what one pass did: wall-clock cost and the circuit's
// size before and after, so pipeline hot spots and gate-count trajectories
// are observable without re-instrumenting callers.
type PassMetric struct {
	Pass           string        `json:"pass"`
	Duration       time.Duration `json:"duration_ns"`
	GatesBefore    int           `json:"gates_before"`
	GatesAfter     int           `json:"gates_after"`
	TwoQubitBefore int           `json:"two_qubit_before"`
	TwoQubitAfter  int           `json:"two_qubit_after"`
	// Cached marks a front-pass metric reused from the batch engine's
	// deduplication cache: the pass did not run for this compilation, so
	// aggregations should count cached entries zero times (the job that
	// populated the cache carries the uncached metric).
	Cached bool `json:"cached,omitempty"`
}

// Pass is one named stage of a compilation pipeline. Run reads the current
// circuit c (identical to ctx.Circuit) and stores its transformed output and
// any mapping-state updates back into ctx.
type Pass interface {
	Name() string
	Run(ctx *PassContext, c *circuit.Circuit) error
}

// passFunc adapts a function to the Pass interface.
type passFunc struct {
	name string
	fn   func(ctx *PassContext, c *circuit.Circuit) error
}

func (p passFunc) Name() string { return p.name }

func (p passFunc) Run(ctx *PassContext, c *circuit.Circuit) error { return p.fn(ctx, c) }

// NewPass wraps a function as a named Pass.
func NewPass(name string, fn func(ctx *PassContext, c *circuit.Circuit) error) Pass {
	return passFunc{name: name, fn: fn}
}

// costModel returns ctx.Cost, resolving it from the options on first use so
// pipelines driven outside compileFrom (tests, custom pass lists) need no
// setup. Resolution is sticky: every pass of one compilation scores against
// the same model instance and its memoized tables.
func (ctx *PassContext) costModel() device.CostModel {
	if ctx.Cost == nil {
		ctx.Cost = ctx.Opts.costModel()
	}
	return ctx.Cost
}

// routerWeights unpacks a cost model into the weight function and memoized
// oracle a router's fields take (both nil under Uniform).
func routerWeights(cm device.CostModel, g *topo.Graph) (func(a, b int) float64, *topo.WeightedOracle) {
	w := cm.Weight()
	if w == nil {
		return nil, nil
	}
	return w, cm.Oracle(g)
}

// PassManager runs an ordered list of passes over a PassContext, timing each
// one and recording circuit-size deltas.
type PassManager struct {
	label  string
	passes []Pass
}

// NewPassManager builds a manager from a pass list. The label names the
// pipeline in error messages.
func NewPassManager(label string, passes ...Pass) *PassManager {
	return &PassManager{label: label, passes: passes}
}

// Run executes every pass in order, appending one PassMetric per pass to
// ctx.Metrics. The first failing pass aborts the pipeline, as does
// cancellation of ctx.Ctx at any pass boundary.
func (pm *PassManager) Run(ctx *PassContext) error {
	// Passes never mutate their input, so each pass's after-snapshot is
	// the next one's before-snapshot.
	after := ctx.Circuit.CollectStats()
	for _, p := range pm.passes {
		if ctx.Ctx != nil {
			if err := ctx.Ctx.Err(); err != nil {
				return fmt.Errorf("compiler: %s pipeline cancelled before pass %s: %w", pm.label, p.Name(), err)
			}
		}
		before := after
		start := time.Now()
		if err := p.Run(ctx, ctx.Circuit); err != nil {
			return fmt.Errorf("compiler: %s pipeline, pass %s: %w", pm.label, p.Name(), err)
		}
		after = ctx.Circuit.CollectStats()
		m := PassMetric{
			Pass:           p.Name(),
			Duration:       time.Since(start),
			GatesBefore:    before.Total,
			GatesAfter:     after.Total,
			TwoQubitBefore: before.TwoQubit,
			TwoQubitAfter:  after.TwoQubit,
		}
		ctx.Metrics = append(ctx.Metrics, m)
		recordPass(ctx.span, m, start, start.Add(m.Duration))
	}
	return nil
}

// recordPass records m as the pass:<name> child of parent from start to
// end, the instants m.Duration was measured between, with m's gate counts
// (and its cached mark) as attributes. On a nil parent it does nothing, so
// an untraced compile builds no span name and formats no attribute.
func recordPass(parent *obs.Span, m PassMetric, start, end time.Time) {
	if parent == nil {
		return
	}
	sp := parent.ChildAt("pass:"+m.Pass, start)
	sp.SetAttr("gates_before", strconv.Itoa(m.GatesBefore))
	sp.SetAttr("gates_after", strconv.Itoa(m.GatesAfter))
	sp.SetAttr("two_qubit_before", strconv.Itoa(m.TwoQubitBefore))
	sp.SetAttr("two_qubit_after", strconv.Itoa(m.TwoQubitAfter))
	if m.Cached {
		sp.SetAttr("cached", "true")
	}
	sp.EndAt(end)
}

// ---- Decompose passes ----

// DecomposeToffoliAll lowers every Toffoli-class gate up front with the given
// mode — the conventional pipeline's first stage.
func DecomposeToffoliAll(mode decompose.ToffoliMode) Pass {
	return NewPass(fmt.Sprintf("decompose:toffoli-all(%v)", mode), func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.ToffoliAll(c, mode)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// DecomposeKeepToffoli lowers everything except Toffolis, which stay intact
// for trio-aware mapping and routing — the Trios pipeline's first stage.
func DecomposeKeepToffoli() Pass {
	return NewPass("decompose:keep-toffoli", func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.KeepToffoli(c)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// MappingAwarePass runs the second, placement-aware Toffoli decomposition.
func MappingAwarePass(mode decompose.ToffoliMode) Pass {
	return NewPass(fmt.Sprintf("decompose:mapping-aware(%v)", mode), func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.MappingAware(c, ctx.Graph, mode)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// LowerPass rewrites the circuit into the {u1,u2,u3,cx} basis.
func LowerPass() Pass {
	return NewPass("lower:basis", func(ctx *PassContext, c *circuit.Circuit) error {
		out, err := decompose.LowerToBasis(c)
		if err != nil {
			return err
		}
		ctx.Circuit = out
		return nil
	})
}

// ---- Layout pass ----

// PlacePass computes the initial virtual->physical placement from
// ctx.Opts (explicit layout, greedy, random, or identity) using the current
// circuit's interaction structure, and seeds Final with a copy of it.
func PlacePass() Pass {
	return NewPass("layout:place", func(ctx *PassContext, c *circuit.Circuit) error {
		init, err := initialLayout(c, ctx.Graph, ctx.Opts, ctx.costModel())
		if err != nil {
			return err
		}
		ctx.Init = init
		ctx.Final = init.Copy()
		return nil
	})
}

// ---- Route passes ----

// RoutePass runs the configured router from the placement chosen by
// PlacePass; trioAware selects the Trios-capable router variants.
func RoutePass(trioAware bool) Pass {
	return NewPass("route:main", func(ctx *PassContext, c *circuit.Circuit) error {
		routed, err := routeMain(ctx, c, trioAware)
		if err != nil {
			return err
		}
		ctx.Circuit = routed.Circuit
		ctx.Final = routed.Final
		ctx.SwapsAdded += routed.SwapsAdded
		return nil
	})
}

// incremental is a router that can route a circuit window by window
// (route.Baseline and route.Trios).
type incremental interface {
	Begin(g *topo.Graph, initial *layout.Layout) (*route.Session, error)
}

// routeMain routes c with the configured router. An incremental router
// runs in the context's main session: the first circuit begins it at
// ctx.Init and every later one continues it, so a context fed a program
// window by window routes it exactly as one circuit. The layer-based
// routers need the whole circuit and route c on its own.
func routeMain(ctx *PassContext, c *circuit.Circuit, trioAware bool) (*route.Result, error) {
	if ctx.main == nil {
		router, err := pickRouter(ctx.Opts, trioAware, ctx.costModel(), ctx.Graph)
		if err != nil {
			return nil, err
		}
		inc, ok := router.(incremental)
		if !ok {
			return router.Route(c, ctx.Graph, ctx.Init)
		}
		if ctx.main, err = inc.Begin(ctx.Graph, ctx.Init); err != nil {
			return nil, err
		}
	}
	return feed(ctx.main, c, ctx.Graph)
}

// feed routes c as the next window of session s: the result holds the
// window's routed gates and SWAPs and the session's live placement.
func feed(s *route.Session, c *circuit.Circuit, g *topo.Graph) (*route.Result, error) {
	swaps := s.Swaps()
	if err := s.Feed(c.Gates); err != nil {
		return nil, err
	}
	return &route.Result{
		Circuit:    &circuit.Circuit{NumQubits: g.NumQubits(), Gates: s.Drain(nil)},
		Final:      s.Layout(),
		SwapsAdded: s.Swaps() - swaps,
	}, nil
}

// FixupRoutePass patches the non-adjacent CNOTs a forced 6-CNOT
// decomposition leaves: it routes the current circuit over physical
// positions in the context's fixup session, a pairwise router that starts
// at the identity layout on first use. The session scores against the same
// cost model as the main routing pass and is seeded with Seed+1 to
// decorrelate it from that pass. finalPlacement composes its movement onto
// the main route's placement.
func FixupRoutePass() Pass {
	return NewPass("route:fixup", func(ctx *PassContext, c *circuit.Circuit) error {
		if ctx.fixup == nil {
			w, oracle := routerWeights(ctx.costModel(), ctx.Graph)
			r := &route.Baseline{Seed: ctx.Opts.Seed + 1, Weight: w, Oracle: oracle}
			s, err := r.Begin(ctx.Graph, layout.Identity(ctx.Graph.NumQubits()))
			if err != nil {
				return err
			}
			ctx.fixup = s
		}
		fixed, err := feed(ctx.fixup, c, ctx.Graph)
		if err != nil {
			return err
		}
		ctx.Circuit = fixed.Circuit
		ctx.SwapsAdded += fixed.SwapsAdded
		return nil
	})
}

// finalPlacement is where each virtual qubit ends: main is its placement
// after the main routing pass, and a fixup session, which routes over
// physical positions, moves it on from there.
func finalPlacement(main *layout.Layout, fixup *route.Session) []int {
	final := main.VirtualToPhys()
	if fixup != nil {
		for v, p := range final {
			final[v] = fixup.Layout().Phys(p)
		}
	}
	return final
}

// ---- Optimize passes ----

// SaturateInputPass runs the worklist rewrite engine on the source circuit
// before decomposition: cancellations, rotation merges, and structural
// absorptions all apply at the logical level, where no routing constraint
// limits which gates a rule may synthesize.
func SaturateInputPass() Pass {
	return NewPass("optimize:saturate-input", func(ctx *PassContext, c *circuit.Circuit) error {
		out, _ := rewrite.Saturate(c, rewrite.Options{})
		ctx.Circuit = out
		return nil
	})
}

// SaturateRoutedPass runs the rewrite engine on the routed circuit, before
// basis lowering — the window where routing SWAPs, intact Toffolis, and
// named Cliffords still exist, so SWAP absorption and CX/CZ conjugation can
// shed two-qubit gates the post-lowering pass can no longer see. Rules that
// synthesize a two-qubit gate on a new pair are gated by the coupling
// graph's adjacency, so the circuit stays routed.
func SaturateRoutedPass() Pass {
	return NewPass("optimize:saturate-routed", func(ctx *PassContext, c *circuit.Circuit) error {
		out, _ := rewrite.Saturate(c, rewrite.Options{AdjacentOK: ctx.Graph.Connected})
		ctx.Circuit = out
		return nil
	})
}

// SaturateOutputPass alternates the rewrite engine with 1-qubit-run
// consolidation on the lowered circuit. Saturation is local — a mixed-axis
// 1q run is a fixpoint for the rule table — while Consolidate1Q resynthesizes
// such runs into at most one u-gate, which can expose new inverse pairs
// across them; the loop runs until the gate count stops dropping (a few
// iterations in practice, capped to stay linear).
func SaturateOutputPass() Pass {
	return NewPass("optimize:saturate-output", func(ctx *PassContext, c *circuit.Circuit) error {
		cur := c
		best := len(cur.Gates) + 1
		for iter := 0; iter < 4 && len(cur.Gates) < best; iter++ {
			best = len(cur.Gates)
			out, _ := rewrite.Saturate(cur, rewrite.Options{})
			consolidated, err := optimize.Consolidate1Q(out)
			if err != nil {
				return err
			}
			cur = consolidated
		}
		ctx.Circuit = cur
		return nil
	})
}

// ---- Schedule and stats passes ----

// FidelityPass closes a calibrated pipeline: it schedules the compiled
// circuit under the calibration's gate times and evaluates the closed-form
// per-edge/per-qubit success estimate (per-qubit decoherence, the paper's
// "idle errors" accounting), recording both in the context. It reads the
// same Calibration the cost model routes by, so the estimate and the routing
// decisions can never disagree about what the hardware costs. The circuit is
// not modified.
func FidelityPass(cal *device.Calibration) Pass {
	return NewPass("stats:fidelity", func(ctx *PassContext, c *circuit.Circuit) error {
		p, d, err := noise.SuccessWithCalibration(c, cal, noise.CoherencePerQubit)
		if err != nil {
			return err
		}
		ctx.EstimatedSuccess, ctx.Makespan = p, d
		return nil
	})
}

// StatsPass is a terminal no-op whose PassMetric snapshot records the final
// circuit size, closing every pipeline's metric trail.
func StatsPass() Pass {
	return NewPass("stats", func(ctx *PassContext, c *circuit.Circuit) error {
		return nil
	})
}

// ---- Pipeline construction ----

// passPlan is the pass list for one set of options, cut where a windowed
// compile cuts it. Compile runs the parts in order on the whole circuit;
// StreamCompile runs front, route and after on every window (place only on
// the first) and skips close, whose passes need the whole program.
type passPlan struct {
	// front is the device-independent prefix: input optimization (when
	// enabled) and the first decomposition. Its output depends only on the
	// input circuit, the pipeline kind, the Toffoli mode, and the Optimize
	// flag — never on the device graph, placement, or seed — which is what
	// lets the batch engine deduplicate it across (device x seed x
	// placement) fan-outs.
	front []Pass
	// place chooses the initial placement; route is the main routing pass.
	place, route Pass
	// after is the rest of the per-gate work: second decomposition and
	// fixup routing, the routed-circuit rewrite, lowering, and output
	// optimization.
	after []Pass
	// close is the whole-circuit tail: fidelity estimate and stats.
	close []Pass
}

// planPasses builds the pass plan for opts.
func planPasses(opts Options) (*passPlan, error) {
	plan := &passPlan{place: PlacePass()}
	if opts.Optimize {
		plan.front = append(plan.front, SaturateInputPass())
	}
	switch opts.Pipeline {
	case Conventional:
		mode := opts.Mode
		if mode == decompose.Auto {
			mode = decompose.Six // Qiskit's default Toffoli expansion
		}
		plan.front = append(plan.front, DecomposeToffoliAll(mode))
		plan.route = RoutePass(false)
	case TriosPipeline:
		plan.front = append(plan.front, DecomposeKeepToffoli())
		plan.route = RoutePass(true)
		switch opts.Mode {
		case decompose.Six:
			// Forced 6-CNOT: decompose, then patch non-adjacent CNOTs with a
			// fixup routing pass over physical positions.
			plan.after = append(plan.after, MappingAwarePass(decompose.Six), FixupRoutePass())
		case decompose.Auto, decompose.Eight:
			plan.after = append(plan.after, MappingAwarePass(opts.Mode))
		default:
			return nil, fmt.Errorf("compiler: unsupported toffoli mode %v", opts.Mode)
		}
	default:
		return nil, fmt.Errorf("compiler: unknown pipeline %d", int(opts.Pipeline))
	}
	// The optimizer rewrites the routed circuit just before lowering, where
	// SWAPs and intact Toffolis are still visible, and the lowered output.
	if opts.Optimize {
		plan.after = append(plan.after, SaturateRoutedPass(), LowerPass(), SaturateOutputPass())
	} else {
		plan.after = append(plan.after, LowerPass())
	}
	if opts.Calibration != nil {
		plan.close = append(plan.close, FidelityPass(opts.Calibration))
	}
	plan.close = append(plan.close, StatsPass())
	return plan, nil
}

// back is the plan's device-dependent remainder, in pipeline order.
func (plan *passPlan) back() []Pass {
	ps := append([]Pass{plan.place, plan.route}, plan.after...)
	return append(ps, plan.close...)
}

// PipelinePasses returns the complete pass list (front + back) for opts.
func PipelinePasses(opts Options) ([]Pass, error) {
	plan, err := planPasses(opts)
	if err != nil {
		return nil, err
	}
	return append(plan.front, plan.back()...), nil
}

// prepareFront validates the input and runs only the front passes, with
// their spans under span, returning the prepared circuit and the passes'
// metrics. The batch engine caches them per (input, pipeline, mode, optimize).
func prepareFront(input *circuit.Circuit, opts Options, span *obs.Span) (*circuit.Circuit, []PassMetric, error) {
	if err := input.Validate(); err != nil {
		return nil, nil, err
	}
	plan, err := planPasses(opts)
	if err != nil {
		return nil, nil, err
	}
	ctx := &PassContext{span: span, Opts: opts, Circuit: input}
	pm := NewPassManager(opts.Pipeline.String()+"-front", plan.front...)
	if err := pm.Run(ctx); err != nil {
		return nil, nil, err
	}
	return ctx.Circuit, ctx.Metrics, nil
}

// checkFits rejects programs with more qubits than the device has.
func checkFits(numQubits int, g *topo.Graph) error {
	if numQubits > g.NumQubits() {
		return fmt.Errorf("compiler: circuit needs %d qubits, device %s has %d", numQubits, g.Name(), g.NumQubits())
	}
	return nil
}

// prepare is the validation and one-time setup every compile of a
// numQubits-qubit program for g under opts runs first, whether the program
// arrives whole (Compile) or window by window (StreamCompile). It checks
// the program fits, resolves the cost model once, and verifies that
// whatever calibration is in play characterizes this device: a noise model
// missing couplings would otherwise surface as unreachable-path routing
// failures deep inside a pass. It then builds the device's distance oracle
// (idempotent), so the layout and routing passes run on table lookups and
// the one-time build is not misattributed to whichever pass queried first.
func prepare(numQubits int, g *topo.Graph, opts Options) (device.CostModel, error) {
	if err := checkFits(numQubits, g); err != nil {
		return nil, err
	}
	cm := opts.costModel()
	if opts.Calibration != nil {
		if err := opts.Calibration.CheckGraph(g); err != nil {
			return nil, err
		}
	}
	if nm, ok := cm.(*device.Noise); ok && nm.Calibration() != opts.Calibration {
		if err := nm.Calibration().CheckGraph(g); err != nil {
			return nil, err
		}
	}
	g.EnsureOracle()
	return cm, nil
}

// compileFrom runs the pipeline for j: prepare, then the front passes
// through cache (which may be nil), then the back passes. A program that
// cannot fit or whose calibration does not match fails before any pass, so
// no front output is computed or cached for it. Cancelling stdctx aborts at
// the next pass boundary. The compile:prep span and each pass's span open
// under span, if non-nil.
func compileFrom(stdctx context.Context, span *obs.Span, cache *frontCache, j Job) (*Result, error) {
	prep := span.Child("compile:prep")
	cm, err := prepare(j.Input.NumQubits, j.Graph, j.Opts)
	prep.SetError(err)
	prep.End()
	if err != nil {
		return nil, err
	}
	ctx := &PassContext{Ctx: stdctx, span: span, Graph: j.Graph, Opts: j.Opts, Cost: cm}
	ctx.Circuit, ctx.Metrics, err = cache.get(j.Input, j.FrontKey, j.Opts, span)
	if err != nil {
		return nil, err
	}
	// The front may widen the program by a borrowed wire (see
	// decompose.KeepToffoli), which the device must hold too.
	if err := checkFits(ctx.Circuit.NumQubits, j.Graph); err != nil {
		return nil, err
	}
	plan, err := planPasses(j.Opts)
	if err != nil {
		return nil, err
	}
	pm := NewPassManager(j.Opts.Pipeline.String(), plan.back()...)
	if err := pm.Run(ctx); err != nil {
		return nil, err
	}
	return &Result{
		Input:            j.Input,
		Physical:         ctx.Circuit,
		Initial:          ctx.Init.VirtualToPhys(),
		Final:            finalPlacement(ctx.Final, ctx.fixup),
		SwapsAdded:       ctx.SwapsAdded,
		Graph:            j.Graph,
		Passes:           ctx.Metrics,
		CostModel:        cm.Name(),
		EstimatedSuccess: ctx.EstimatedSuccess,
		Makespan:         ctx.Makespan,
	}, nil
}
