package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/compiler"
	"trios/internal/qasm"
	"trios/internal/topo"
)

// postStream drives POST /v1/compile/stream with src as the raw body and
// returns the response with its full body read.
func postStream(t *testing.T, ts *httptest.Server, query string, src io.Reader) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/compile/stream"+query, "text/plain", src)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// splitTrailer separates the compiled program from the stats trailer line.
func splitTrailer(t *testing.T, body string) (program string, stats streamStats) {
	t.Helper()
	i := strings.LastIndex(body, streamStatsPrefix)
	if i < 0 {
		tail := body
		if len(tail) > 400 {
			tail = "..." + tail[len(tail)-400:]
		}
		t.Fatalf("no %q trailer; body tail:\n%s", streamStatsPrefix, tail)
	}
	line := strings.TrimSuffix(body[i+len(streamStatsPrefix):], "\n")
	if err := json.Unmarshal([]byte(line), &stats); err != nil {
		t.Fatalf("bad stats trailer %q: %v", line, err)
	}
	return body[:i], stats
}

// TestHTTPStreamGolden checks the streamed wire body (minus its trailer) is
// byte-identical to the monolithic compile of the same program with the same
// options — the endpoint is a transport, not a different compiler.
func TestHTTPStreamGolden(t *testing.T) {
	_, ts := newTestServer(t)
	b, err := benchmarks.ByName("cnx_dirty-11")
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	src, err := qasm.Emit(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.ByName("johannesburg")
	if err != nil {
		t.Fatal(err)
	}
	// Identity placement keeps both arms' layouts equal: greedy placement
	// sees only the first window on the streaming side, which is a
	// documented divergence, not the transport property under test.
	res, err := compiler.Compile(c, g, compiler.Options{
		Pipeline: compiler.TriosPipeline, Placement: compiler.PlaceIdentity, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := qasm.Emit(res.Physical)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postStream(t, ts, "?pipeline=trios&placement=identity&seed=5&window=64", strings.NewReader(src))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trios-Cache"); got != "bypass" {
		t.Fatalf("X-Trios-Cache = %q, want bypass", got)
	}
	program, stats := splitTrailer(t, body)
	if program != want {
		t.Fatalf("streamed program differs from monolithic compile (%d vs %d bytes)", len(program), len(want))
	}
	if stats.InputGates != len(c.Gates) {
		t.Fatalf("trailer input_gates = %d, want %d", stats.InputGates, len(c.Gates))
	}
	if stats.Windows < 1 || stats.EmittedGates == 0 || stats.Window != 64 {
		t.Fatalf("implausible trailer: %+v", stats)
	}
}

func TestHTTPStreamBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{
		"?topology=nosuch",
		"?pipeline=groups",
		"?router=stochastic",
		"?router=lookahead",
		"?window=0",
		"?window=banana",
		"?seed=banana",
		"?optimize=banana",
		"?parallel=banana",
		"?optimizer=legacy",
		"?bogus=1",
	} {
		resp, body := postStream(t, ts, q, strings.NewReader("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", q, resp.StatusCode, body)
		}
	}
}

func TestHTTPStreamCompileError(t *testing.T) {
	_, ts := newTestServer(t)
	// No qreg declaration: the compile fails before any output is emitted,
	// so the endpoint still owns the status code.
	resp, body := postStream(t, ts, "", strings.NewReader("OPENQASM 2.0;\ncx q[0], q[1];\n"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, body)
	}
}

// TestHTTPStreamRefusesNonFiniteParam: a parameter that is not a finite
// real fails the parse before any output, so the endpoint answers 422
// with the parser's error.
func TestHTTPStreamRefusesNonFiniteParam(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postStream(t, ts, "", strings.NewReader("OPENQASM 2.0;\nqreg q[2];\nrz(-inf) q[0];\n"))
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(body, `bad parameter \"-inf\"`) {
		t.Fatalf("status %d, want 422 with the bad-parameter error (%s)", resp.StatusCode, body)
	}
}

func TestHTTPStreamOverloadAndDrain(t *testing.T) {
	s, ts := newTestServer(t)
	// Fill the admission semaphore: the next stream must be shed with 429.
	for i := 0; i < cap(s.streamSem); i++ {
		s.streamSem <- struct{}{}
	}
	resp, _ := postStream(t, ts, "", strings.NewReader("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	for i := 0; i < cap(s.streamSem); i++ {
		<-s.streamSem
	}
	s.BeginDrain()
	resp, _ = postStream(t, ts, "", strings.NewReader("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPStreamLargeGenerated pushes a generated 50k-gate stream through
// the wire path end to end and checks the trailer accounting.
func TestHTTPStreamLargeGenerated(t *testing.T) {
	_, ts := newTestServer(t)
	const gates = 50_000
	resp, body := postStream(t, ts, "?pipeline=baseline&window=1024", benchmarks.StreamCliffordT(16, gates, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %.300s", resp.StatusCode, body)
	}
	program, stats := splitTrailer(t, body)
	if stats.InputGates != gates {
		t.Fatalf("trailer input_gates = %d, want %d", stats.InputGates, gates)
	}
	if stats.Windows != (gates+1023)/1024 {
		t.Fatalf("trailer windows = %d, want %d", stats.Windows, (gates+1023)/1024)
	}
	// The emitted program must itself parse clean.
	out, err := qasm.Parse(program)
	if err != nil {
		t.Fatalf("emitted program does not parse: %v", err)
	}
	if len(out.Gates) != stats.EmittedGates {
		t.Fatalf("emitted %d gates, trailer says %d", len(out.Gates), stats.EmittedGates)
	}
}

func TestStreamMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t)
	resp, _ := postStream(t, ts, "?window=256", strings.NewReader("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	s.metrics.write(&buf, s.cache.Stats(), nil, 0, 0)
	out := buf.String()
	for _, want := range []string{
		`triosd_stream_total{outcome="ok"} 1`,
		"triosd_stream_windows_total 1",
		"triosd_stream_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
