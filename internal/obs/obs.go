// Package obs is the zero-dependency observability layer shared by the
// serving stack: in-process request tracing with W3C traceparent propagation
// (trace.go, traceparent.go), a bounded ring of completed traces served at
// GET /debug/traces (handler.go), a leveled structured logger (log.go), Go
// runtime metrics in Prometheus text exposition format (runtime.go), an
// exposition-format linter that keeps /metrics well-formed (lint.go), and an
// opt-in pprof debug mux (debug.go).
//
// Everything is nil-safe by design: a nil *Tracer hands out nil *Spans, and
// every Span and Logger method is a no-op on a nil receiver, so call sites
// stay unconditional and a daemon started with tracing off pays nothing but
// a pointer test per call.
package obs

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// TraceID is the 128-bit W3C trace identifier shared by every span of one
// request, across processes.
type TraceID [16]byte

// String returns the 32-hex-digit wire form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the invalid all-zero ID (forbidden by the W3C spec).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanContext is the propagated identity of one span: enough to parent a
// child in another process via the traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  uint64
}

// Attr is one key/value annotation on a span or a log line.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is one finished span as recorded in its trace. IDs are hex
// strings so the JSON form needs no further decoding.
type SpanData struct {
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Attrs      []Attr    `json:"attrs,omitempty"`
	Err        string    `json:"error,omitempty"`
}

// maxSpansPerTrace bounds one trace's span list: a runaway instrumentation
// loop degrades to dropped spans (counted on the record), never to unbounded
// memory.
const maxSpansPerTrace = 256

// traceRec accumulates the finished spans of one trace. The record is shared
// by every span of the trace and by the tracer's ring once published, so
// spans that finish after the root (e.g. a write-behind store flush) still
// land in the rendered trace.
type traceRec struct {
	traceID TraceID

	mu      sync.Mutex
	spans   []SpanData
	dropped int
}

func (r *traceRec) append(sd SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpansPerTrace {
		r.dropped++
		return
	}
	r.spans = append(r.spans, sd)
}

// snapshot copies the record under its lock.
func (r *traceRec) snapshot() ([]SpanData, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanData(nil), r.spans...), r.dropped
}

// publishedTrace is one completed trace in the tracer's retention window:
// the shared record plus the root span's summary, frozen at publish time.
type publishedTrace struct {
	rec  *traceRec
	root SpanData
}

// Tracer owns a process's trace retention: a bounded ring of recent traces
// plus the slowest-N by root duration, both served by DebugHandler. A trace
// is published when its root span ends. The zero value is unusable; use
// NewTracer. A nil *Tracer disables tracing entirely.
type Tracer struct {
	recentCap  int
	slowestCap int

	mu      sync.Mutex
	recent  []*publishedTrace // ring; pos is the next overwrite slot
	pos     int
	slowest []*publishedTrace // sorted by root duration, descending
	started uint64
	ended   uint64
}

// DefaultRecent and DefaultSlowest size NewTracer's retention window.
const (
	DefaultRecent  = 256
	DefaultSlowest = 32
)

// NewTracer returns an enabled tracer with the default retention window.
func NewTracer() *Tracer { return NewTracerSize(DefaultRecent, DefaultSlowest) }

// NewTracerSize returns an enabled tracer retaining the last recent traces
// and the slowest slowest traces (minimums of 1 apply).
func NewTracerSize(recent, slowest int) *Tracer {
	if recent < 1 {
		recent = 1
	}
	if slowest < 1 {
		slowest = 1
	}
	return &Tracer{recentCap: recent, slowestCap: slowest}
}

// newID returns a non-zero random 64-bit span ID.
func newID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// newTraceID returns a non-zero random 128-bit trace ID.
func newTraceID() TraceID {
	var t TraceID
	hi, lo := rand.Uint64(), newID()
	for i := 0; i < 8; i++ {
		t[i] = byte(hi >> (56 - 8*i))
		t[8+i] = byte(lo >> (56 - 8*i))
	}
	return t
}

// StartSpan opens a span named name: a child of the span already in ctx, or
// the root of a new trace. The returned context carries the new span for
// further nesting. On a nil tracer (with no span in ctx) it returns ctx and
// a nil, no-op span.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent := SpanFromContext(ctx); parent != nil {
		child := parent.Child(name)
		return ContextWithSpan(ctx, child), child
	}
	if t == nil {
		return ctx, nil
	}
	s := t.newRoot(name, newTraceID(), 0)
	return ContextWithSpan(ctx, s), s
}

// StartRemoteSpan opens this process's root span for a trace that began
// elsewhere (sc parsed from an inbound traceparent header): the span joins
// sc's trace ID with sc's span as its parent, so the originating process's
// span tree and this one stitch into one trace. On a nil tracer it returns
// ctx and a nil span.
func (t *Tracer) StartRemoteSpan(ctx context.Context, name string, sc SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := t.newRoot(name, sc.TraceID, sc.SpanID)
	return ContextWithSpan(ctx, s), s
}

func (t *Tracer) newRoot(name string, traceID TraceID, parent uint64) *Span {
	t.mu.Lock()
	t.started++
	t.mu.Unlock()
	return &Span{
		tracer:  t,
		rec:     &traceRec{traceID: traceID},
		traceID: traceID,
		id:      newID(),
		parent:  parent,
		name:    name,
		start:   time.Now(),
		root:    true,
	}
}

// publish retains a completed trace in the ring and, when slow enough, the
// slowest-N list.
func (t *Tracer) publish(rec *traceRec, root SpanData) {
	pt := &publishedTrace{rec: rec, root: root}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ended++
	if len(t.recent) < t.recentCap {
		t.recent = append(t.recent, pt)
		t.pos = len(t.recent) % t.recentCap
	} else {
		t.recent[t.pos] = pt
		t.pos = (t.pos + 1) % t.recentCap
	}
	i := sort.Search(len(t.slowest), func(i int) bool {
		return t.slowest[i].root.DurationNs < root.DurationNs
	})
	if i < t.slowestCap {
		t.slowest = append(t.slowest, nil)
		copy(t.slowest[i+1:], t.slowest[i:])
		t.slowest[i] = pt
		if len(t.slowest) > t.slowestCap {
			t.slowest = t.slowest[:t.slowestCap]
		}
	}
}

// TraceSummary is one retained trace, snapshotted for rendering: the root
// span's identity plus every span recorded so far (late spans included).
type TraceSummary struct {
	TraceID    string     `json:"trace_id"`
	Root       string     `json:"root"`
	Start      time.Time  `json:"start"`
	DurationNs int64      `json:"duration_ns"`
	Spans      []SpanData `json:"spans"`
	Dropped    int        `json:"dropped_spans,omitempty"`
}

func summarize(pt *publishedTrace) TraceSummary {
	spans, dropped := pt.rec.snapshot()
	return TraceSummary{
		TraceID:    pt.rec.traceID.String(),
		Root:       pt.root.Name,
		Start:      pt.root.Start,
		DurationNs: pt.root.DurationNs,
		Spans:      spans,
		Dropped:    dropped,
	}
}

// Recent returns up to n retained traces, newest first (n <= 0: all).
func (t *Tracer) Recent(n int) []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	pts := make([]*publishedTrace, 0, len(t.recent))
	for i := 0; i < len(t.recent); i++ {
		// Walk backwards from the newest slot (pos-1) so output is
		// newest-first regardless of ring wraparound.
		idx := (t.pos - 1 - i + 2*len(t.recent)) % len(t.recent)
		pts = append(pts, t.recent[idx])
	}
	t.mu.Unlock()
	if n > 0 && len(pts) > n {
		pts = pts[:n]
	}
	out := make([]TraceSummary, len(pts))
	for i, pt := range pts {
		out[i] = summarize(pt)
	}
	return out
}

// Slowest returns up to n retained traces by descending root duration
// (n <= 0: all).
func (t *Tracer) Slowest(n int) []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	pts := append([]*publishedTrace(nil), t.slowest...)
	t.mu.Unlock()
	if n > 0 && len(pts) > n {
		pts = pts[:n]
	}
	out := make([]TraceSummary, len(pts))
	for i, pt := range pts {
		out[i] = summarize(pt)
	}
	return out
}

// Counts reports how many root spans were started and published.
func (t *Tracer) Counts() (started, ended uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started, t.ended
}

// Span is one timed operation inside a trace. Spans are created by
// Tracer.StartSpan (roots) or Span.Child, annotated with SetAttr/SetError,
// and recorded by End. All methods are no-ops on a nil receiver.
type Span struct {
	tracer  *Tracer
	rec     *traceRec
	traceID TraceID
	id      uint64
	parent  uint64
	name    string
	start   time.Time
	root    bool

	mu    sync.Mutex
	attrs []Attr
	err   string
	ended bool
}

// Child opens a sub-span starting now. A nil span reads no clock.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildAt(name, time.Now())
}

// ChildAt opens a sub-span at an instant the caller already read, so a span
// and the timer beside it (a pass's PassMetric, a job's Elapsed) share their
// timestamps; EndAt closes it the same way.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer:  s.tracer,
		rec:     s.rec,
		traceID: s.traceID,
		id:      newID(),
		parent:  s.id,
		name:    name,
		start:   start,
	}
}

// SetAttr annotates the span. Later values for one key append rather than
// overwrite; keep keys distinct.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetError marks the span failed. A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.err = err.Error()
}

// End records the span, ending now. A nil span reads no clock.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt records the span with an explicit end time. Ending a span twice is a
// no-op; ending the trace's root span publishes the trace to the tracer's
// retention window. Spans of the same trace may still End after the root —
// they append to the already-published record.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs, errMsg := s.attrs, s.err
	s.mu.Unlock()

	d := t.Sub(s.start)
	if d < 0 {
		d = 0
	}
	sd := SpanData{
		SpanID:     FormatSpanID(s.id),
		Name:       s.name,
		Start:      s.start,
		DurationNs: int64(d),
		Attrs:      attrs,
		Err:        errMsg,
	}
	if s.parent != 0 {
		sd.ParentID = FormatSpanID(s.parent)
	}
	s.rec.append(sd)
	if s.root {
		s.tracer.publish(s.rec, sd)
	}
}

// Context returns the span's propagation identity for traceparent injection.
// The zero SpanContext marks a nil (non-recording) span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.id}
}

// TraceIDString returns the span's 32-hex trace ID ("" on a nil span) — the
// value echoed in X-Trios-Trace response headers.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.traceID.String()
}

// ctxKey keys the active span in a context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the active span, or nil (which every Span method
// tolerates).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
