package qasm

import (
	"bufio"
	"io"

	"trios/internal/circuit"
)

// MaxLineBytes bounds a single source line (and therefore a single
// statement: the dialect Parse accepts never spans a statement across
// lines). A line longer than this is rejected with a bounded error instead
// of being buffered, so a hostile or corrupt million-gate stream cannot
// force the reader to materialize an unbounded statement.
const MaxLineBytes = 1 << 16

// Reader is a pull-based streaming QASM parser: it reads the same dialect
// as Parse from an io.Reader one gate at a time, holding only the current
// line in memory. It runs Parse's statement scanner, so on inputs that fit
// in memory it matches Parse exactly — same gates in the same order, same
// register-growth behavior, and the same error whenever Parse errors — and
// windowed compilation can trust it as a drop-in front end.
type Reader struct {
	p    *parser
	next int // index in p.c.Gates of the next gate to hand out
	err  error
}

// NewReader wraps r in a streaming QASM reader. No input is consumed until
// the first NextGate call.
func NewReader(r io.Reader) *Reader {
	return &Reader{p: newParser(r, MaxLineBytes)}
}

// NextGate returns the next gate in the stream. It returns io.EOF after the
// final gate of a well-formed program; any other error is a parse failure
// (including a program that ends without a qreg declaration, which Parse
// also rejects). Once an error is returned, every later call returns the
// same error.
func (r *Reader) NextGate() (circuit.Gate, error) {
	if r.err != nil {
		return circuit.Gate{}, r.err
	}
	// The parser appends each line's gates to its circuit, which keeps
	// the register state (name, size, growth) across lines; the gates are
	// handed out and dropped line by line, so memory stays bounded by the
	// longest line.
	for r.p.c == nil || r.next >= len(r.p.c.Gates) {
		if r.p.c != nil {
			r.p.c.Gates = r.p.c.Gates[:0]
			r.next = 0
		}
		more, err := r.p.line()
		switch {
		case err != nil:
			r.err = err
		case more:
			continue
		case r.p.c == nil:
			r.err = errNoQreg
		default:
			r.err = io.EOF
		}
		return circuit.Gate{}, r.err
	}
	g := r.p.c.Gates[r.next]
	r.next++
	return g, nil
}

// NumQubits reports the current register size: the declared qreg size,
// grown if a parsed gate referenced a higher index (the same growth
// semantics Parse has). Zero until the qreg declaration has been read.
func (r *Reader) NumQubits() int {
	if r.p.c == nil {
		return 0
	}
	return r.p.c.NumQubits
}

// HasCreg reports whether a creg declaration has been read. In canonical
// output a creg is present iff the program measures, so the emitter side of
// a streaming pipeline uses this to reproduce Emit's header byte-for-byte.
func (r *Reader) HasCreg() bool { return r.p.hasCreg }

// emitBufferSize is the emitter's write buffer. Each write may cost the
// destination a system call or, on the stream endpoint, a flushed HTTP
// chunk, and a compiled Toffoli program runs to megabytes, so the emitter
// writes 64 KiB blocks rather than bufio's default 4 KiB.
const emitBufferSize = 64 << 10

// Emitter is the push-based dual of Reader: it renders gates to an
// io.Writer one at a time in exactly the byte format Emit produces, so a
// windowed pipeline that feeds every gate of a circuit through EmitGate
// writes output byte-identical to Emit of the whole circuit. Because the
// header is written before any gate is seen, the caller must say up front
// whether the program has a classical register (Emit derives this by
// scanning for measures, which a stream cannot do).
type Emitter struct {
	w     *bufio.Writer
	line  []byte // the gate being rendered, reused across gates
	gates int
	err   error
}

// NewEmitter writes the OpenQASM 2.0 header for an n-qubit program (with a
// matching creg when withCreg is set) and returns an emitter for its gates.
func NewEmitter(w io.Writer, n int, withCreg bool) (*Emitter, error) {
	e := &Emitter{w: bufio.NewWriterSize(w, emitBufferSize), line: make([]byte, 0, 128)}
	e.w.Write(appendHeader(e.line, n, withCreg))
	if err := e.w.Flush(); err != nil {
		e.err = err
		return nil, err
	}
	return e, nil
}

// EmitGate appends one gate statement. Rendering is identical to Emit's
// per-gate lines, and a gate Emit refuses is refused here with the same
// error. After an error (render or I/O), the emitter is dead and every
// later call returns the same error.
func (e *Emitter) EmitGate(g circuit.Gate) error {
	if e.err != nil {
		return e.err
	}
	if !g.Name.Valid() {
		e.err = unknownGate(e.gates, g.Name)
		return e.err
	}
	e.line = append(AppendGate(e.line[:0], g), '\n')
	if _, err := e.w.Write(e.line); err != nil {
		e.err = err
		return e.err
	}
	e.gates++
	return nil
}

// Flush forces buffered output to the underlying writer. Call it after the
// final gate (and at window boundaries when incremental delivery matters,
// e.g. chunked HTTP responses).
func (e *Emitter) Flush() error {
	if e.err != nil {
		return e.err
	}
	if err := e.w.Flush(); err != nil {
		e.err = err
	}
	return e.err
}
