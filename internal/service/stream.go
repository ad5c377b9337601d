package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"trios/internal/compiler"
	"trios/internal/stream"
)

// Streaming compile endpoint: POST /v1/compile/stream accepts a raw OpenQASM
// 2.0 body of unbounded length and streams the compiled program back window
// by window (chunked transfer), so a million-gate circuit compiles in fixed
// memory on both sides of the wire. Options travel as query parameters in
// the same vocabulary as POST /v1/compile's JSON fields. The artifact cache
// and persistent store are bypassed by design — the body is never buffered,
// so there is nothing to content-address — and the response advertises that
// with X-Trios-Cache: bypass.
//
// The response body is the compiled QASM followed by one stats trailer line:
//
//	// trios-stream: {"input_gates":...,"emitted_gates":...,"windows":...}
//
// A failure after emission has begun cannot change the status code (the 200
// header is already on the wire), so it is reported in-band as a final
//
//	// trios-stream-error: <message>
//
// line and no stats trailer; clients must treat a missing trailer as failure.

// streamStatsPrefix and streamErrorPrefix frame the in-band trailer lines.
// Both are QASM comments, so a client that pipes the body straight into
// another tool still holds a well-formed program.
const (
	streamStatsPrefix = "// trios-stream: "
	streamErrorPrefix = "// trios-stream-error: "
)

// streamStats is the trailer schema.
type streamStats struct {
	InputQubits       int     `json:"input_qubits"`
	NumQubits         int     `json:"num_qubits"`
	InputGates        int     `json:"input_gates"`
	EmittedGates      int     `json:"emitted_gates"`
	Windows           int     `json:"windows"`
	Window            int     `json:"window"`
	Parallel          bool    `json:"parallel"`
	SwapsAdded        int     `json:"swaps_added"`
	ScheduledDuration float64 `json:"scheduled_duration_us"`
	CompileSeconds    float64 `json:"compile_seconds"`
	CostModel         string  `json:"cost_model,omitempty"`
}

// streamParams is the stream endpoint's query vocabulary: the option fields
// of POST /v1/compile that a stream accepts, plus window and parallel.
var streamParams = []string{"topology", "pipeline", "toffoli", "router", "placement", "seed", "optimize", "calibration", "cost", "window", "parallel"}

// resolveStreamQuery maps /v1/compile/stream query parameters onto
// compiler.StreamOptions through the same resolveOptions vocabulary the JSON
// endpoint uses, plus the two streaming knobs: window (gates per window) and
// parallel (pipelined stage workers; default true). Like the JSON endpoint's
// unknown fields, a parameter outside streamParams is refused rather than
// ignored.
func (s *Service) resolveStreamQuery(q url.Values) (*JobSpec, compiler.StreamOptions, error) {
	var unknown []string
	for k := range q {
		if !slices.Contains(streamParams, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return nil, compiler.StreamOptions{}, badRequest("unknown query parameter %q (want %s)", unknown[0], strings.Join(streamParams, ", "))
	}
	req := CompileRequest{
		Topology:    q.Get("topology"),
		Pipeline:    q.Get("pipeline"),
		Toffoli:     q.Get("toffoli"),
		Router:      q.Get("router"),
		Placement:   q.Get("placement"),
		Calibration: q.Get("calibration"),
		Cost:        q.Get("cost"),
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, compiler.StreamOptions{}, badRequest("bad seed %q", v)
		}
		req.Seed = &n
	}
	if v := q.Get("optimize"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, compiler.StreamOptions{}, badRequest("bad optimize %q", v)
		}
		req.Optimize = b
	}
	g, err := deviceByName(orDefault(req.Topology, "johannesburg"))
	if err != nil {
		return nil, compiler.StreamOptions{}, badRequest("%v", err)
	}
	opts, err := resolveOptions(req)
	if err != nil {
		return nil, compiler.StreamOptions{}, err
	}
	if err := compiler.CheckStreamable(opts); err != nil {
		return nil, compiler.StreamOptions{}, badRequest("%v; use /v1/compile", err)
	}
	sopts := compiler.StreamOptions{Options: opts, Window: stream.DefaultWindow, Parallel: true}
	if v := q.Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, compiler.StreamOptions{}, badRequest("bad window %q (want a positive gate count)", v)
		}
		sopts.Window = n
	}
	if v := q.Get("parallel"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, compiler.StreamOptions{}, badRequest("bad parallel %q", v)
		}
		sopts.Parallel = b
	}
	return &JobSpec{Graph: g}, sopts, nil
}

// flushWriter flushes the response after every Write, so a client sees
// compiled output while its upload is still streaming in. The writes come
// from the QASM emitter, which buffers 64 KiB and also flushes at the end of
// each window, so a window goes out as several chunks of up to 64 KiB. It
// also counts bytes: zero bytes written means the status code is still ours
// to choose when a compile fails early.
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
	n  int64
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.n += int64(n)
	if n > 0 {
		_ = fw.rc.Flush() // best-effort; not every ResponseWriter can flush
	}
	return n, err
}

func (s *Service) handleCompileStream(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	spec, sopts, err := s.resolveStreamQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Admission: streams take one of streamSem's workers-many slots, a
	// budget of their own beside the compile pool's workers goroutines, so
	// pool compiles and streams can run workers-many each at once. Streams
	// bypass the job queue (they hold a connection for their whole duration,
	// so queueing them would just park connections); overflow is shed
	// immediately, like the queue's 429.
	select {
	case s.streamSem <- struct{}{}:
		defer func() { <-s.streamSem }()
	default:
		s.metrics.countStream("rejected", 0, 0)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ErrOverloaded)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.closing.Load() { // re-check: Close may have raced the Add
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Trios-Cache", "bypass")
	rc := http.NewResponseController(w)
	// HTTP/1 servers abort request-body reads once the response starts;
	// a streaming compile reads and writes concurrently by design, so opt
	// into full duplex (a no-op on HTTP/2 and on writers that lack it).
	_ = rc.EnableFullDuplex()
	fw := &flushWriter{w: w, rc: rc}
	start := time.Now()
	res, err := compiler.StreamCompile(r.Context(), r.Body, fw, spec.Graph, sopts)
	elapsed := time.Since(start)
	if err != nil {
		s.metrics.countStream("error", 0, 0)
		if fw.n == 0 {
			// Nothing on the wire yet: the status code is still ours. The
			// request was admissible and well-formed (query errors returned
			// 400 above), so this is the program failing to compile — 422,
			// matching the JSON endpoint's CompileError mapping.
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		fmt.Fprintf(fw, "%s%v\n", streamErrorPrefix, err)
		return
	}
	stats := streamStats{
		InputQubits:       res.InputQubits,
		NumQubits:         res.NumQubits,
		InputGates:        res.InputGates,
		EmittedGates:      res.EmittedGates,
		Windows:           res.Windows,
		Window:            sopts.Window,
		Parallel:          sopts.Parallel,
		SwapsAdded:        res.SwapsAdded,
		ScheduledDuration: res.ScheduledDuration,
		CompileSeconds:    elapsed.Seconds(),
		CostModel:         res.CostModel,
	}
	trailer, merr := json.Marshal(stats)
	if merr != nil {
		fmt.Fprintf(fw, "%s%v\n", streamErrorPrefix, merr)
		return
	}
	fmt.Fprintf(fw, "%s%s\n", streamStatsPrefix, trailer)
	s.metrics.countStream("ok", res.EmittedGates, res.Windows)
	s.metrics.streamHist.observe(elapsed.Seconds())
}
