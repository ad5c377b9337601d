package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trios/internal/obs"
	"trios/internal/store"
)

func newTracedServer(t *testing.T, cfg Config) (*Service, *httptest.Server, *obs.Tracer) {
	t.Helper()
	tracer := obs.NewTracer()
	cfg.Tracer = tracer
	s := newTestService(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, tracer
}

// waitForTrace polls until the tracer has published n completed traces: the
// root span ends after the response bytes reach the client, so tests must not
// assert on the ring the instant the HTTP call returns.
func waitForTrace(t *testing.T, tracer *obs.Tracer, n uint64) {
	t.Helper()
	waitFor(t, func() bool { _, ended := tracer.Counts(); return ended >= n })
}

func traceSpan(tr obs.TraceSummary, name string) (obs.SpanData, bool) {
	for _, s := range tr.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return obs.SpanData{}, false
}

// TestColdCompileTraceShape drives one cold compile and checks its trace: a
// root HTTP span over cache probe, flight, queue wait, and a compile span
// whose per-pass children account for (nearly) all of its duration.
func TestColdCompileTraceShape(t *testing.T) {
	_, ts, tracer := newTracedServer(t, Config{Workers: 2})
	resp := postCompile(t, ts, CompileRequest{Benchmark: "cnx_dirty-11", Topology: "grid", Pipeline: "trios", Seed: seedp(5)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	if len(traceID) != 32 {
		t.Fatalf("X-Trios-Trace %q is not a 32-hex trace id", traceID)
	}
	waitForTrace(t, tracer, 1)

	trc := tracer.Recent(1)[0]
	if trc.TraceID != traceID {
		t.Fatalf("ring trace %s != header trace %s", trc.TraceID, traceID)
	}
	if trc.Root != "POST /v1/compile" {
		t.Fatalf("root span %q", trc.Root)
	}
	for _, name := range []string{"cache:l1", "flight", "queue:wait", "compile:prep", "compile"} {
		if _, ok := traceSpan(trc, name); !ok {
			t.Fatalf("trace missing %s span; got %+v", name, trc.Spans)
		}
	}
	root, _ := traceSpan(trc, "POST /v1/compile")
	if root.Attrs == nil {
		t.Fatal("root span has no attrs")
	}
	compile, _ := traceSpan(trc, "compile")
	var passSum int64
	var passes int
	for _, s := range trc.Spans {
		if strings.HasPrefix(s.Name, "pass:") {
			if s.ParentID != compile.SpanID {
				t.Fatalf("pass span %s parented to %s, not the compile span", s.Name, s.ParentID)
			}
			passSum += s.DurationNs
			passes++
		}
	}
	if passes == 0 {
		t.Fatal("no per-pass spans recorded")
	}
	// The passes run sequentially inside the compile span; their reconstructed
	// durations must account for at least 90% of it.
	if passSum < compile.DurationNs*9/10 || passSum > compile.DurationNs {
		t.Fatalf("pass durations sum to %d ns, compile span is %d ns", passSum, compile.DurationNs)
	}
}

// TestInboundTraceparentHonored sends an explicit W3C traceparent and checks
// the request joins that trace: same trace ID echoed and recorded, root span
// parented to the remote span ID.
func TestInboundTraceparentHonored(t *testing.T) {
	_, ts, tracer := newTracedServer(t, Config{Workers: 2})
	const inboundTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const inboundParent = "00f067aa0ba902b7"
	body := `{"benchmark":"cnx_dirty-11","topology":"grid","pipeline":"trios","seed":5}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/compile", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-"+inboundTrace+"-"+inboundParent+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != inboundTrace {
		t.Fatalf("X-Trios-Trace %q, want inbound trace %q", got, inboundTrace)
	}
	waitForTrace(t, tracer, 1)
	trc := tracer.Recent(1)[0]
	if trc.TraceID != inboundTrace {
		t.Fatalf("recorded trace %s, want %s", trc.TraceID, inboundTrace)
	}
	root, ok := traceSpan(trc, "POST /v1/compile")
	if !ok {
		t.Fatal("no root span")
	}
	if root.ParentID != inboundParent {
		t.Fatalf("root parent %q, want remote parent %q", root.ParentID, inboundParent)
	}
}

// TestTraceStoreSpans exercises the persistent tier's spans: a cold compile
// records a store:flush (write-behind) and a restart-warm request records a
// store:probe hit.
func TestTraceStoreSpans(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts, tracer := newTracedServer(t, Config{Workers: 2, Store: st})
	req := CompileRequest{Benchmark: "cnx_dirty-11", Topology: "grid", Pipeline: "trios", Seed: seedp(5)}
	if resp := postCompile(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", resp.StatusCode)
	}
	waitForTrace(t, tracer, 1)
	// The flush span ends asynchronously after the response; poll for it.
	waitFor(t, func() bool {
		trc := tracer.Recent(1)[0]
		_, ok := traceSpan(trc, "store:flush")
		return ok
	})
	trc := tracer.Recent(1)[0]
	if probe, ok := traceSpan(trc, "store:probe"); !ok {
		t.Fatal("cold trace missing store:probe")
	} else if len(probe.Attrs) == 0 || probe.Attrs[0].Value != "false" {
		t.Fatalf("cold store:probe attrs %v, want hit=false", probe.Attrs)
	}
}

// TestDebugTracesEndpoint checks the route is wired on the serving mux and
// reports the compile in its slowest section.
func TestDebugTracesEndpoint(t *testing.T) {
	_, ts, tracer := newTracedServer(t, Config{Workers: 2})
	if resp := postCompile(t, ts, CompileRequest{Benchmark: "cnx_dirty-11", Topology: "grid", Pipeline: "trios", Seed: seedp(5)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}
	waitForTrace(t, tracer, 1)
	resp, err := http.Get(ts.URL + "/debug/traces?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Enabled bool               `json:"enabled"`
		Slowest []obs.TraceSummary `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Enabled || len(body.Slowest) == 0 {
		t.Fatalf("debug traces: enabled=%v slowest=%d", body.Enabled, len(body.Slowest))
	}
	if body.Slowest[0].Root != "POST /v1/compile" {
		t.Fatalf("slowest root %q", body.Slowest[0].Root)
	}
}

// TestTracingOffIsInert checks the nil-tracer path: no trace header, and
// /debug/traces still answers (reporting disabled) instead of 404ing.
func TestTracingOffIsInert(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postCompile(t, ts, CompileRequest{Benchmark: "cnx_dirty-11", Topology: "grid", Pipeline: "trios", Seed: seedp(5)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "" {
		t.Fatalf("trace header %q with tracing off", got)
	}
	dbg, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Body.Close()
	raw, _ := io.ReadAll(dbg.Body)
	if dbg.StatusCode != http.StatusOK || !strings.Contains(string(raw), "tracing disabled") {
		t.Fatalf("debug traces with tracing off: %d %s", dbg.StatusCode, raw)
	}
}

// TestMetricsExpositionLints scrapes /metrics after real traffic (a miss, a
// hit, and the store tier active) and runs the exposition linter over the
// full output, runtime metrics included.
func TestMetricsExpositionLints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts, _ := newTracedServer(t, Config{Workers: 2, Store: st})
	req := CompileRequest{Benchmark: "cnx_dirty-11", Topology: "grid", Pipeline: "trios", Seed: seedp(5)}
	postCompile(t, ts, req)
	postCompile(t, ts, req)

	// Give the write-behind flush a moment so store counters move too.
	time.Sleep(50 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{"triosd_requests_total", "go_goroutines", "go_gc_pause_seconds_bucket"} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %s:\n%.500s", want, out)
		}
	}
	if problems := obs.LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("/metrics fails exposition lint:\n%s\nfull output:\n%s", strings.Join(problems, "\n"), out)
	}
}
