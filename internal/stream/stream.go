// Package stream compiles circuits in bounded gate windows: QASM is read
// and cut into windows, each window is compiled by the caller's Compiler,
// and the compiled gates are scheduled and re-emitted one window at a time,
// so peak memory is proportional to the window size rather than the
// circuit length. The package owns the windowing and the drivers; what a
// window's compile does is the Compiler's (the compiler package runs its
// own pass list on every window, with routing sessions that carry the live
// placement from one window to the next).
//
// Two drivers run the same stages. Serial reads, compiles and emits one
// window before reading the next. Pipelined runs read, the three compile
// stages and emit as a chain of goroutines connected by capacity-1
// channels, so one window decomposes while the previous routes. FIFO
// channels keep windows in circuit order at every stage, so the pipelined
// output is bit-identical to the serial one at any core count.
package stream

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"trios/internal/circuit"
	"trios/internal/obs"
	"trios/internal/qasm"
	"trios/internal/sched"
)

// DefaultWindow is the gate-window size when none is given, big enough to
// amortize per-window pass overhead. It counts input gates, and a window is
// held in memory as it is compiled: a Toffoli-heavy window leaves lowering
// ten or more times larger, megabytes of gates at this size, so in-flight
// windows do not stay cache-resident.
const DefaultWindow = 4096

// Window is one cut of the program on its way from the reader to the
// emitter.
type Window struct {
	// Index counts windows from 0, in circuit order.
	Index int
	// Circuit holds the window's gates: the input gates, over the pinned
	// input register, as read; the compiled gates, over the device
	// register, once the compile stages have run.
	Circuit *circuit.Circuit
	// InputGates is the number of gates read into the window.
	InputGates int
	// ReadTime is the time spent reading the window (on window 0 it
	// includes Compiler.Begin); EmitTime the time spent scheduling and
	// emitting it, set before Compiler.Emitted.
	ReadTime, EmitTime time.Duration
	// Makespan is the ASAP makespan (us) of everything emitted up to the
	// end of this window, set before Compiler.Emitted.
	Makespan float64

	span *obs.Span
}

// Compiler is the compile a windowed run drives between reading each
// window and emitting it.
type Compiler interface {
	// Begin is called once the input register is pinned to n qubits,
	// before any window is compiled. It validates the program's shape and
	// returns the width of the device register the output is emitted over
	// and the gate times the output is scheduled under.
	Begin(n int) (int, sched.GateTimes, error)
	// Decompose, Route and Lower are the compile stages, in order; each
	// replaces w.Circuit with its output. Every stage sees every window in
	// circuit order, one window at a time, so it may carry state from one
	// window to the next without locking.
	Decompose(w *Window) error
	Route(w *Window) error
	Lower(w *Window) error
	// Emitted is called once w's compiled gates have been written.
	Emitted(w *Window)
}

// run is one windowed compile's reading and emitting state. In the
// pipelined driver each field is owned by one stage goroutine, or written
// by the read stage before the first window is passed on, which the
// channel handoff orders.
type run struct {
	c      Compiler
	reader *qasm.Reader
	out    io.Writer
	size   int
	span   *obs.Span

	// Set by the read stage before the first window is released.
	pinned  bool
	n       int // input register size, fixed for the whole stream
	width   int // device register size
	times   sched.GateTimes
	hasCreg bool
	read    int // gates read so far

	// Owned by the emit stage.
	emitter *qasm.Emitter
	clock   *sched.Clock
}

// readWindow pulls up to r.size gates. done reports a clean end of stream.
// The register size is pinned at the first gate: streaming requires strict
// register bounds, because a later gate growing the register would
// retroactively change how earlier windows were decomposed (canonical
// inputs never grow).
func (r *run) readWindow() (gates []circuit.Gate, done bool, err error) {
	gates = make([]circuit.Gate, 0, r.size)
	for len(gates) < r.size {
		g, err := r.reader.NextGate()
		if err == io.EOF {
			r.read += len(gates)
			return gates, true, nil
		}
		if err != nil {
			return nil, false, err
		}
		if !r.pinned {
			if err := r.pinRegister(); err != nil {
				return nil, false, err
			}
		}
		gates = append(gates, g)
		if r.reader.NumQubits() != r.n {
			return nil, false, fmt.Errorf("stream: gate %d references a qubit beyond the declared %d-qubit register; streaming compiles require strict register bounds", r.read+len(gates)-1, r.n)
		}
	}
	r.read += len(gates)
	return gates, false, nil
}

// pinRegister fixes the input register size and header shape from the
// reader's state (called once the declaration has been parsed) and hands
// the size to the compiler's Begin.
func (r *run) pinRegister() error {
	r.pinned = true
	r.n = r.reader.NumQubits()
	r.hasCreg = r.reader.HasCreg()
	var err error
	r.width, r.times, err = r.c.Begin(r.n)
	return err
}

// compileStage wraps one of the compiler's stages: it notes the window's
// size after the stage on the window's trace span under attr.
func compileStage(stage func(*Window) error, attr string) func(*Window) error {
	return func(w *Window) error {
		if err := stage(w); err != nil {
			return fmt.Errorf("stream: window %d: %w", w.Index, err)
		}
		w.span.SetAttr(attr, strconv.Itoa(len(w.Circuit.Gates)))
		return nil
	}
}

// stageEmit feeds the window's gates to the ASAP clock, which carries the
// schedule across windows, and streams them to the output in the same pass,
// flushing at the window boundary so consumers see incremental delivery.
func (r *run) stageEmit(w *Window) error {
	start := time.Now()
	if w.Index == 0 {
		e, err := qasm.NewEmitter(r.out, r.width, r.hasCreg)
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		r.emitter = e
		r.clock = sched.NewClock(r.width, r.times)
	}
	for _, g := range w.Circuit.Gates {
		if err := r.clock.Add(g); err != nil {
			return fmt.Errorf("stream: window %d: %w", w.Index, err)
		}
		if err := r.emitter.EmitGate(g); err != nil {
			return fmt.Errorf("stream: window %d: %w", w.Index, err)
		}
	}
	if err := r.emitter.Flush(); err != nil {
		return fmt.Errorf("stream: window %d: %w", w.Index, err)
	}
	w.EmitTime = time.Since(start)
	w.Makespan = r.clock.Makespan()
	w.span.SetAttr("gates.emitted", strconv.Itoa(len(w.Circuit.Gates)))
	w.span.End()
	r.c.Emitted(w)
	return nil
}
