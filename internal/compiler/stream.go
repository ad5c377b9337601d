// Streaming facade: StreamCompile runs the compiler's own pass list on a
// program window by window, with internal/stream reading the windows and
// emitting the compiled gates. The routing passes keep their sessions in
// the PassContext, so every window continues the live placement the last
// one left: with Optimize off the streamed output is byte-identical to
// qasm.Emit(Compile(...).Physical) for any window size, and with Optimize
// on it is simulation-equivalent (per-window saturation differs from
// global saturation).
package compiler

import (
	"context"
	"fmt"
	"io"
	"time"

	"trios/internal/sched"
	"trios/internal/stream"
	"trios/internal/topo"
)

// StreamOptions configures a streaming compile: the standard Options plus
// the windowing knobs.
type StreamOptions struct {
	Options
	// Window is the gate-window size (stream.DefaultWindow when zero).
	Window int
	// Parallel runs the pipeline stages as a channel-connected worker
	// chain; output is bit-identical to the serial driver.
	Parallel bool
}

// StreamResult summarizes a streaming compile. It mirrors Result's mapping
// and metric fields but carries no circuits: the program went to the output
// writer, window by window.
type StreamResult struct {
	// InputQubits is the declared input register; NumQubits the device
	// register of the emitted program.
	InputQubits  int
	NumQubits    int
	InputGates   int
	EmittedGates int
	Windows      int
	SwapsAdded   int
	Initial      []int
	Final        []int
	// ScheduledDuration is the ASAP makespan (us) of the emitted program,
	// accumulated incrementally across windows, under the calibration's
	// gate times (Johannesburg's without one). With a calibration and
	// Optimize off it equals Compile's Makespan.
	ScheduledDuration float64
	// Passes sums each pass over all windows, between the reading
	// (read:qasm) and the scheduling and emission (schedule:asap+emit) of
	// the windows.
	Passes []PassMetric
	// CostModel names the cost model that drove layout and routing.
	CostModel string
}

// CheckStreamable reports why opts cannot be compiled window by window, or
// nil if they can: only the direct router streams (stochastic and lookahead
// routing are layer-based and need the whole circuit).
func CheckStreamable(opts Options) error {
	if opts.Router != RouteDirect {
		return fmt.Errorf("router %v is not streamable (layer-based routers need the whole circuit)", opts.Router)
	}
	return nil
}

// StreamCompile compiles QASM from src to dst in bounded gate windows.
// Restrictions vs Compile: the options must pass CheckStreamable, and no
// fidelity estimate is computed (it is a whole-circuit property). Greedy
// placement sees only the first window's interaction graph. Per-window
// trace spans are recorded under the span in ctx, if any.
func StreamCompile(ctx context.Context, src io.Reader, dst io.Writer, g *topo.Graph, opts StreamOptions) (*StreamResult, error) {
	if err := CheckStreamable(opts.Options); err != nil {
		return nil, fmt.Errorf("compiler: %w; use Compile", err)
	}
	plan, err := planPasses(opts.Options)
	if err != nil {
		return nil, err
	}
	label := opts.Pipeline.String()
	wc := &windowed{g: g, opts: opts.Options}
	wc.front.passes = NewPassManager(label, plan.front...)
	wc.route.passes = NewPassManager(label, plan.route)
	wc.route.first = NewPassManager(label, plan.place, plan.route)
	wc.back.passes = NewPassManager(label, plan.after...)
	drive := stream.Serial
	if opts.Parallel {
		drive = stream.Pipelined
	}
	if err := drive(ctx, src, dst, opts.Window, wc); err != nil {
		return nil, err
	}
	return wc.result(), nil
}

// windowed is the stream.Compiler of a StreamCompile: the pass plan cut
// into the stream's three compile stages. Each stage runs its passes in its
// own PassContext, fed every window in circuit order, so the route stage's
// context continues the main routing session and the back stage's the
// fixup session.
type windowed struct {
	g    *topo.Graph
	opts Options
	// front runs the front passes; route places (on window 0) and routes;
	// back runs every pass after routing.
	front, route, back windowStage
	// res is filled as windows are emitted; readTime and emitTime sum the
	// time spent reading and emitting them.
	res                StreamResult
	readTime, emitTime time.Duration
}

// windowStage is one compile stage of a windowed compile.
type windowStage struct {
	ctx PassContext
	// first runs on window 0 (passes when nil); passes on every other.
	first, passes *PassManager
	// totals sums the stage's pass metrics over the windows done so far.
	totals []PassMetric
}

// run compiles w with the stage's passes and adds their metrics to the
// stage's totals.
func (s *windowStage) run(w *stream.Window) error {
	pm := s.passes
	if w.Index == 0 && s.first != nil {
		pm = s.first
	}
	s.ctx.Circuit = w.Circuit
	s.ctx.Metrics = s.ctx.Metrics[:0]
	if err := pm.Run(&s.ctx); err != nil {
		return err
	}
	// Hand the window on without keeping it: a stage holds no gates
	// between windows.
	w.Circuit, s.ctx.Circuit = s.ctx.Circuit, nil
	s.totals = addMetrics(s.totals, s.ctx.Metrics)
	return nil
}

// addMetrics adds each metric of ms to the total of the same pass name in
// totals, appending passes not seen before.
func addMetrics(totals, ms []PassMetric) []PassMetric {
next:
	for _, m := range ms {
		for i := range totals {
			if t := &totals[i]; t.Pass == m.Pass {
				t.Duration += m.Duration
				t.GatesBefore += m.GatesBefore
				t.GatesAfter += m.GatesAfter
				t.TwoQubitBefore += m.TwoQubitBefore
				t.TwoQubitAfter += m.TwoQubitAfter
				continue next
			}
		}
		totals = append(totals, m)
	}
	return totals
}

// Begin runs the validation Compile runs, once the program's register size
// is known, and gives every stage the resolved cost model. The output is
// scheduled under the calibration's gate times, as FidelityPass schedules
// Compile's, or under Johannesburg's when there is no calibration.
func (wc *windowed) Begin(n int) (int, sched.GateTimes, error) {
	cm, err := prepare(n, wc.g, wc.opts)
	if err != nil {
		return 0, sched.GateTimes{}, err
	}
	for _, s := range []*windowStage{&wc.front, &wc.route, &wc.back} {
		s.ctx.Graph, s.ctx.Opts, s.ctx.Cost = wc.g, wc.opts, cm
	}
	wc.res.InputQubits = n
	wc.res.NumQubits = wc.g.NumQubits()
	wc.res.CostModel = cm.Name()
	times := sched.JohannesburgTimes()
	if wc.opts.Calibration != nil {
		times = wc.opts.Calibration.Times
	}
	return wc.g.NumQubits(), times, nil
}

// Decompose runs the front passes on w and, as Compile does, checks that
// the device holds the wires their output uses (a whole-register mcx
// borrows one past the register).
func (wc *windowed) Decompose(w *stream.Window) error {
	if err := wc.front.run(w); err != nil {
		return err
	}
	return checkFits(w.Circuit.NumQubits, wc.g)
}

func (wc *windowed) Route(w *stream.Window) error { return wc.route.run(w) }
func (wc *windowed) Lower(w *stream.Window) error { return wc.back.run(w) }

// Emitted tallies the window's reading and emission.
func (wc *windowed) Emitted(w *stream.Window) {
	wc.res.Windows++
	wc.res.InputGates += w.InputGates
	wc.res.EmittedGates += len(w.Circuit.Gates)
	wc.res.ScheduledDuration = w.Makespan
	wc.readTime += w.ReadTime
	wc.emitTime += w.EmitTime
}

// result assembles the StreamResult once every window has been emitted.
// The read and emit metrics take their gate counts from the passes next to
// them: what the first front pass saw and what the last back pass left.
func (wc *windowed) result() *StreamResult {
	res := &wc.res
	res.Initial = wc.route.ctx.Init.VirtualToPhys()
	res.Final = finalPlacement(wc.route.ctx.Final, wc.back.ctx.fixup)
	res.SwapsAdded = wc.route.ctx.SwapsAdded + wc.back.ctx.SwapsAdded
	in, out := wc.front.totals[0], wc.back.totals[len(wc.back.totals)-1]
	read := PassMetric{Pass: "read:qasm", Duration: wc.readTime,
		GatesBefore: in.GatesBefore, GatesAfter: in.GatesBefore,
		TwoQubitBefore: in.TwoQubitBefore, TwoQubitAfter: in.TwoQubitBefore}
	emit := PassMetric{Pass: "schedule:asap+emit", Duration: wc.emitTime,
		GatesBefore: out.GatesAfter, GatesAfter: out.GatesAfter,
		TwoQubitBefore: out.TwoQubitAfter, TwoQubitAfter: out.TwoQubitAfter}
	res.Passes = append([]PassMetric{read}, wc.front.totals...)
	res.Passes = append(res.Passes, wc.route.totals...)
	res.Passes = append(res.Passes, wc.back.totals...)
	res.Passes = append(res.Passes, emit)
	return res
}
