package stream

import (
	"context"
	"io"
	"strconv"
	"sync"
	"time"

	"trios/internal/circuit"
	"trios/internal/obs"
	"trios/internal/qasm"
)

// Serial compiles the QASM program read from src to dst in windows of size
// gates (DefaultWindow when size is not positive), in one goroutine: each
// window is read, compiled by c and emitted before the next is read. This
// is the reference ordering; Pipelined must match it bit for bit.
// Cancelling ctx aborts at the next window boundary; each window records a
// child of the trace span in ctx, if any.
func Serial(ctx context.Context, src io.Reader, dst io.Writer, size int, c Compiler) error {
	r := newRun(ctx, src, dst, size, c)
	stages := r.stages()
	return r.produce(ctx, func(w *Window) error {
		for _, stage := range stages {
			if err := stage(w); err != nil {
				return err
			}
		}
		return nil
	})
}

// Pipelined is Serial with the stages connected by channels: read,
// decompose, route, lower, and emit each own a goroutine, so one window
// decomposes while the previous routes. Channel capacity 1 bounds the
// in-flight windows (and so memory) to a small constant multiple of the
// window size; FIFO order makes the result identical to Serial at any core
// count, because every stage still sees windows in circuit order. It
// returns only after every stage goroutine has exited.
func Pipelined(ctx context.Context, src io.Reader, dst io.Writer, size int, c Compiler) error {
	r := newRun(ctx, src, dst, size, c)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chans := [4]chan *Window{}
	for i := range chans {
		chans[i] = make(chan *Window, 1)
	}
	errc := make(chan error, 5)
	var wg sync.WaitGroup

	// Producer: read windows into the chain.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		err := r.produce(ctx, func(w *Window) error {
			select {
			case chans[0] <- w:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		if err != nil {
			errc <- err
			cancel()
		}
	}()

	// Middle and terminal stages.
	mid := func(in <-chan *Window, out chan<- *Window, fn func(*Window) error) {
		defer wg.Done()
		if out != nil {
			defer close(out)
		}
		for {
			select {
			case <-ctx.Done():
				return
			case w, ok := <-in:
				if !ok {
					return
				}
				if err := fn(w); err != nil {
					errc <- err
					cancel()
					return
				}
				if out != nil {
					select {
					case out <- w:
					case <-ctx.Done():
						return
					}
				}
			}
		}
	}
	stages := r.stages()
	wg.Add(len(stages))
	for i, stage := range stages {
		var out chan<- *Window
		if i+1 < len(chans) {
			out = chans[i+1]
		}
		go mid(chans[i], out, stage)
	}

	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}
	return ctx.Err()
}

// newRun prepares a windowed compile of src to dst.
func newRun(ctx context.Context, src io.Reader, dst io.Writer, size int, c Compiler) *run {
	if size <= 0 {
		size = DefaultWindow
	}
	return &run{
		c:      c,
		reader: qasm.NewReader(src),
		out:    dst,
		size:   size,
		span:   obs.SpanFromContext(ctx),
	}
}

// stages lists the stages after reading, in order: the compiler's three,
// then emission.
func (r *run) stages() [4]func(*Window) error {
	return [4]func(*Window) error{
		compileStage(r.c.Decompose, "gates.decomposed"),
		compileStage(r.c.Route, "gates.routed"),
		compileStage(r.c.Lower, "gates.lowered"),
		r.stageEmit,
	}
}

// produce reads windows and hands each to sink until the stream ends.
// Window 0 is always produced, even for a gate-less program, so the
// placement and output header happen exactly once.
func (r *run) produce(ctx context.Context, sink func(*Window) error) error {
	for idx := 0; ; idx++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		gates, done, err := r.readWindow()
		if err != nil {
			return err
		}
		if !r.pinned { // gate-less stream: pin from the declaration alone
			if err := r.pinRegister(); err != nil {
				return err
			}
		}
		if done && len(gates) == 0 && idx > 0 {
			return nil
		}
		sp := r.span.Child("stream:window")
		sp.SetAttr("window", strconv.Itoa(idx))
		sp.SetAttr("gates.in", strconv.Itoa(len(gates)))
		w := &Window{
			Index:      idx,
			Circuit:    &circuit.Circuit{NumQubits: r.n, Gates: gates},
			InputGates: len(gates),
			ReadTime:   time.Since(start),
			span:       sp,
		}
		if err := sink(w); err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}
