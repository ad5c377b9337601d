package obs

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeRecording(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "http POST /v1/compile")
	if root == nil {
		t.Fatal("root span is nil on an enabled tracer")
	}
	root.SetAttr("path", "/v1/compile")
	_, child := tr.StartSpan(ctx, "cache:l1")
	child.SetAttr("hit", "false")
	child.End()
	grand := child.Child("never-recorded") // ended after parent is fine too
	grand.End()
	root.SetError(errors.New("boom"))
	root.End()

	recent := tr.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("got %d recent traces, want 1", len(recent))
	}
	trc := recent[0]
	if trc.Root != "http POST /v1/compile" {
		t.Fatalf("root name %q", trc.Root)
	}
	if len(trc.TraceID) != 32 {
		t.Fatalf("trace id %q not 32 hex chars", trc.TraceID)
	}
	if len(trc.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(trc.Spans))
	}
	var rootData, childData SpanData
	for _, s := range trc.Spans {
		switch s.Name {
		case "http POST /v1/compile":
			rootData = s
		case "cache:l1":
			childData = s
		}
	}
	if rootData.ParentID != "" {
		t.Fatalf("root has parent %q", rootData.ParentID)
	}
	if rootData.Err != "boom" {
		t.Fatalf("root error %q", rootData.Err)
	}
	if childData.ParentID != rootData.SpanID {
		t.Fatalf("child parent %q != root span %q", childData.ParentID, rootData.SpanID)
	}
	if len(childData.Attrs) != 1 || childData.Attrs[0] != (Attr{Key: "hit", Value: "false"}) {
		t.Fatalf("child attrs %v", childData.Attrs)
	}
}

func TestLateSpansJoinPublishedTrace(t *testing.T) {
	tr := NewTracer()
	_, root := tr.StartSpan(context.Background(), "request")
	flush := root.Child("store:flush")
	root.End() // published with the flush still open

	if got := len(tr.Recent(0)[0].Spans); got != 1 {
		t.Fatalf("trace has %d spans before late End, want 1", got)
	}
	flush.End()
	if got := len(tr.Recent(0)[0].Spans); got != 2 {
		t.Fatalf("late span did not join published trace: %d spans, want 2", got)
	}
}

func TestReconstructedChildSpans(t *testing.T) {
	tr := NewTracer()
	_, root := tr.StartSpan(context.Background(), "request")
	start := time.Now().Add(-50 * time.Millisecond)
	c := root.ChildAt("compile", start)
	c.EndAt(start.Add(40 * time.Millisecond))
	root.End()
	spans := tr.Recent(0)[0].Spans
	for _, s := range spans {
		if s.Name == "compile" {
			if got := time.Duration(s.DurationNs); got != 40*time.Millisecond {
				t.Fatalf("reconstructed duration %v, want 40ms", got)
			}
			return
		}
	}
	t.Fatal("compile span not recorded")
}

func TestRingBoundedAndNewestFirst(t *testing.T) {
	tr := NewTracerSize(4, 2)
	for i := 0; i < 10; i++ {
		_, s := tr.StartSpan(context.Background(), fmt.Sprintf("t%d", i))
		s.End()
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	for i, want := range []string{"t9", "t8", "t7", "t6"} {
		if recent[i].Root != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].Root, want)
		}
	}
	started, ended := tr.Counts()
	if started != 10 || ended != 10 {
		t.Fatalf("counts %d/%d, want 10/10", started, ended)
	}
}

func TestSlowestOrdering(t *testing.T) {
	tr := NewTracerSize(16, 3)
	durations := []time.Duration{3 * time.Millisecond, 9 * time.Millisecond,
		time.Millisecond, 7 * time.Millisecond, 5 * time.Millisecond}
	base := time.Now().Add(-time.Second)
	for i, d := range durations {
		_, s := tr.StartSpan(context.Background(), fmt.Sprintf("t%d", i))
		s.start = base
		s.EndAt(base.Add(d))
	}
	slowest := tr.Slowest(0)
	if len(slowest) != 3 {
		t.Fatalf("slowest holds %d, want 3", len(slowest))
	}
	for i, want := range []string{"t1", "t3", "t4"} { // 9ms, 7ms, 5ms
		if slowest[i].Root != want {
			t.Fatalf("slowest[%d] = %s, want %s", i, slowest[i].Root, want)
		}
	}
}

func TestSpansPerTraceBounded(t *testing.T) {
	tr := NewTracer()
	_, root := tr.StartSpan(context.Background(), "flood")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		root.Child("c").End()
	}
	root.End() // the root itself lands past the cap
	trc := tr.Recent(0)[0]
	if len(trc.Spans) != maxSpansPerTrace {
		t.Fatalf("trace holds %d spans, want cap %d", len(trc.Spans), maxSpansPerTrace)
	}
	if trc.Dropped != 11 {
		t.Fatalf("dropped %d, want 11", trc.Dropped)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Fatalf("nil span stored in context: %v", got)
	}
	// Every method must tolerate the nil span.
	s.SetAttr("k", "v")
	s.SetError(errors.New("x"))
	s.Child("c").End()
	s.End()
	if id := s.TraceIDString(); id != "" {
		t.Fatalf("nil span trace id %q", id)
	}
	if sc := s.Context(); sc != (SpanContext{}) {
		t.Fatalf("nil span context %v", sc)
	}
	if tr.Recent(0) != nil || tr.Slowest(0) != nil {
		t.Fatal("nil tracer returned traces")
	}
}

func TestRemoteSpanJoinsTrace(t *testing.T) {
	upstream := NewTracer()
	_, proxySpan := upstream.StartSpan(context.Background(), "proxy:compile")
	fwd := proxySpan.Child("proxy:forward")
	header := fwd.Context().Traceparent()

	replica := NewTracer()
	sc, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", header)
	}
	_, serverSpan := replica.StartRemoteSpan(context.Background(), "http POST /v1/compile", sc)
	serverSpan.End()
	fwd.End()
	proxySpan.End()

	up := upstream.Recent(0)[0]
	down := replica.Recent(0)[0]
	if up.TraceID != down.TraceID {
		t.Fatalf("trace ids diverge: proxy %s replica %s", up.TraceID, down.TraceID)
	}
	if down.Spans[0].ParentID != FormatSpanID(fwd.id) {
		t.Fatalf("replica root parent %s, want proxy forward span %s",
			down.Spans[0].ParentID, FormatSpanID(fwd.id))
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := NewTracerSize(8, 4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, root := tr.StartSpan(context.Background(), "req")
			for j := 0; j < 8; j++ {
				_, c := tr.StartSpan(ctx, "child")
				c.SetAttr("j", "x")
				c.End()
			}
			root.End()
			tr.Recent(3)
			tr.Slowest(3)
		}()
	}
	wg.Wait()
	if _, ended := tr.Counts(); ended != 16 {
		t.Fatalf("ended %d, want 16", ended)
	}
}

func TestDebugHandlerTextAndJSON(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "http POST /v1/compile")
	_, c := tr.StartSpan(ctx, "compile")
	c.End()
	root.End()

	rec := httptest.NewRecorder()
	tr.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	text := rec.Body.String()
	for _, want := range []string{"== slowest (1) ==", "== recent (1) ==", "http POST /v1/compile", "compile"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text output missing %q:\n%s", want, text)
		}
	}

	rec = httptest.NewRecorder()
	tr.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=json&n=5", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type %q", ct)
	}
	for _, want := range []string{`"enabled": true`, `"trace_id"`, `"compile"`, `"slowest"`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("json output missing %q:\n%s", want, rec.Body.String())
		}
	}

	var disabled *Tracer
	rec = httptest.NewRecorder()
	disabled.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if !strings.Contains(rec.Body.String(), "tracing disabled") {
		t.Fatalf("disabled handler output: %s", rec.Body.String())
	}
}

func TestDebugMuxServesPprofAndTraces(t *testing.T) {
	mux := DebugMux(NewTracer())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: code %d body %.120s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("debug traces code %d", rec.Code)
	}
}
