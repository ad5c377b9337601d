package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// TestColdCompileTraceShape drives one cold, optimized compile and checks
// the worker's spans against the other two views of the same timers:
// queue:wait ends by the time compile starts; compile holds compile:prep,
// the front passes and the back passes in the order they ran, none
// overlapping; each pass span lasts exactly its artifact duration_ns and
// its rise in triosd_pass_seconds_sum, and the compile span exactly the
// artifact's compile_ns.
func TestColdCompileTraceShape(t *testing.T) {
	_, ts, tracer := newTracedServer(t, Config{Workers: 2})
	before := passSecondsSums(t, ts)
	resp := postCompile(t, ts, CompileRequest{Benchmark: "cnx_dirty-11", Topology: "grid", Pipeline: "trios", Seed: seedp(5), Optimize: true})
	art := decodeArtifact(t, resp)
	traceID := resp.Header.Get(obs.TraceHeader)
	if len(traceID) != 32 {
		t.Fatalf("X-Trios-Trace %q is not a 32-hex trace id", traceID)
	}
	waitForTrace(t, tracer, 1)
	after := passSecondsSums(t, ts)

	trc := tracer.Recent(1)[0]
	if trc.TraceID != traceID {
		t.Fatalf("ring trace %s != header trace %s", trc.TraceID, traceID)
	}
	if trc.Root != "POST /v1/compile" {
		t.Fatalf("root span %q", trc.Root)
	}
	for _, name := range []string{"cache:l1", "flight"} {
		if _, ok := traceSpan(trc, name); !ok {
			t.Fatalf("trace missing %s span; got %+v", name, trc.Spans)
		}
	}
	root, _ := traceSpan(trc, "POST /v1/compile")
	if root.Attrs == nil {
		t.Fatal("root span has no attrs")
	}
	for i, s := range checkCompileTree(t, trc, art) {
		p := art.Passes[i]
		if p.Cached {
			t.Fatalf("pass %s cached on a cold compile", p.Pass)
		}
		if s.DurationNs != p.Duration.Nanoseconds() {
			t.Errorf("%s span %d ns, artifact duration_ns %d", s.Name, s.DurationNs, p.Duration.Nanoseconds())
		}
		rise := after[p.Pass] - before[p.Pass]
		if math.Abs(rise-float64(s.DurationNs)/1e9) > 1e-9 {
			t.Errorf("%s: triosd_pass_seconds_sum rose %g s, span lasts %d ns", s.Name, rise, s.DurationNs)
		}
	}
}

// TestConcurrentTraceShapes compiles one program under four seeds at once
// on two workers. The four jobs share a front-cache entry, so exactly one
// of them runs the front passes and the others show them as cached,
// zero-width spans; every trace keeps its order.
func TestConcurrentTraceShapes(t *testing.T) {
	_, ts, tracer := newTracedServer(t, Config{Workers: 2})
	const n = 4
	arts := make([]Artifact, n)
	traceIDs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(CompileRequest{Benchmark: "cnx_dirty-11", Topology: "grid", Pipeline: "trios", Seed: seedp(int64(i + 1)), Optimize: true})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&arts[i]); err != nil {
				t.Error(err)
			}
			traceIDs[i] = resp.Header.Get(obs.TraceHeader)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitForTrace(t, tracer, n)
	byID := make(map[string]obs.TraceSummary)
	for _, trc := range tracer.Recent(n) {
		byID[trc.TraceID] = trc
	}
	filled := 0
	for i, art := range arts {
		trc, ok := byID[traceIDs[i]]
		if !ok {
			t.Fatalf("request %d: trace %s not retained", i, traceIDs[i])
		}
		for k, s := range checkCompileTree(t, trc, art) {
			p := art.Passes[k]
			switch {
			case p.Cached && (spanAttr(s, "cached") != "true" || s.DurationNs != 0):
				t.Errorf("request %d: cached %s has attr %q and %d ns", i, s.Name, spanAttr(s, "cached"), s.DurationNs)
			case !p.Cached && (spanAttr(s, "cached") != "" || s.DurationNs != p.Duration.Nanoseconds()):
				t.Errorf("request %d: %s has attr %q and %d ns, artifact %d ns", i, s.Name, spanAttr(s, "cached"), s.DurationNs, p.Duration.Nanoseconds())
			}
		}
		if !art.Passes[0].Cached {
			filled++
		}
	}
	if filled != 1 {
		t.Fatalf("%d of %d requests ran the shared front passes, want 1", filled, n)
	}
}

// decodeArtifact checks resp is a 200 and decodes its artifact.
func decodeArtifact(t *testing.T, resp *http.Response) Artifact {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var art Artifact
	if err := json.NewDecoder(resp.Body).Decode(&art); err != nil {
		t.Fatal(err)
	}
	return art
}

// checkCompileTree checks the worker's side of trc against its artifact:
// queue:wait and compile hang off the request span, queue:wait ends by the
// time compile starts, compile lasts exactly compile_ns, and its children
// are compile:prep and then the artifact's passes, in order, none
// overlapping and all inside compile. Each
// pass span carries its metric's gate counts. It returns the pass spans in
// the artifact's order.
func checkCompileTree(t *testing.T, trc obs.TraceSummary, art Artifact) []obs.SpanData {
	t.Helper()
	root, _ := traceSpan(trc, "POST /v1/compile")
	wait, okWait := traceSpan(trc, "queue:wait")
	compile, okCompile := traceSpan(trc, "compile")
	if !okWait || !okCompile {
		t.Fatalf("trace lacks queue:wait or compile; got %+v", trc.Spans)
	}
	if wait.ParentID != root.SpanID || compile.ParentID != root.SpanID {
		t.Fatalf("queue:wait and compile parented to %s and %s, not the request span %s", wait.ParentID, compile.ParentID, root.SpanID)
	}
	if spanEnd(wait).After(compile.Start) {
		t.Fatalf("queue:wait ends at %v, after compile starts at %v", spanEnd(wait), compile.Start)
	}
	if compile.DurationNs != art.CompileNanos {
		t.Fatalf("compile span %d ns, artifact compile_ns %d", compile.DurationNs, art.CompileNanos)
	}
	var inner []obs.SpanData
	for _, s := range trc.Spans {
		if s.ParentID == compile.SpanID {
			inner = append(inner, s)
		}
	}
	sort.SliceStable(inner, func(i, j int) bool { return inner[i].Start.Before(inner[j].Start) })
	want := []string{"compile:prep"}
	for _, p := range art.Passes {
		want = append(want, "pass:"+p.Pass)
	}
	var got []string
	for _, s := range inner {
		got = append(got, s.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("compile span children\n got %v\nwant %v", got, want)
	}
	for i := 1; i < len(inner); i++ {
		if spanEnd(inner[i-1]).After(inner[i].Start) {
			t.Fatalf("%s ends at %v, after %s starts at %v", inner[i-1].Name, spanEnd(inner[i-1]), inner[i].Name, inner[i].Start)
		}
	}
	if first, last := inner[0], inner[len(inner)-1]; first.Start.Before(compile.Start) || spanEnd(last).After(spanEnd(compile)) {
		t.Fatalf("children run %v..%v, outside the compile span %v..%v", first.Start, spanEnd(last), compile.Start, spanEnd(compile))
	}
	passes := inner[1:]
	for i, s := range passes {
		p := art.Passes[i]
		for _, a := range []struct {
			key  string
			want int
		}{{"gates_before", p.GatesBefore}, {"gates_after", p.GatesAfter}, {"two_qubit_before", p.TwoQubitBefore}, {"two_qubit_after", p.TwoQubitAfter}} {
			if v := spanAttr(s, a.key); v != strconv.Itoa(a.want) {
				t.Errorf("%s attr %s = %q, want %d", s.Name, a.key, v, a.want)
			}
		}
	}
	return passes
}

// spanEnd is the instant s ended.
func spanEnd(s obs.SpanData) time.Time { return s.Start.Add(time.Duration(s.DurationNs)) }

// spanAttr returns the value of s's attribute key, or "".
func spanAttr(s obs.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// passSecondsSums scrapes /metrics for every triosd_pass_seconds_sum series,
// keyed by pass name.
func passSecondsSums(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		series, value, ok := strings.Cut(line, " ")
		pass, found := strings.CutPrefix(series, `triosd_pass_seconds_sum{pass="`)
		if !ok || !found {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		sums[strings.TrimSuffix(pass, `"}`)] = v
	}
	return sums
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
