package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, ts *httptest.Server, req CompileRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestHTTPCompileMissThenHit drives the full wire path: a cold compile, then
// the identical request again. The second response must be marked a hit and
// its body must be byte-identical to the first.
func TestHTTPCompileMissThenHit(t *testing.T) {
	_, ts := newTestServer(t)
	req := CompileRequest{Benchmark: "cnx_dirty-11", Topology: "grid", Pipeline: "trios", Seed: seedp(5)}

	cold := postCompile(t, ts, req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status = %d", cold.StatusCode)
	}
	if got := cold.Header.Get("X-Trios-Cache"); got != "miss" {
		t.Fatalf("cold X-Trios-Cache = %q", got)
	}
	coldBody, err := io.ReadAll(cold.Body)
	if err != nil {
		t.Fatal(err)
	}

	hot := postCompile(t, ts, req)
	if hot.StatusCode != http.StatusOK {
		t.Fatalf("hot status = %d", hot.StatusCode)
	}
	if got := hot.Header.Get("X-Trios-Cache"); got != "hit" {
		t.Fatalf("hot X-Trios-Cache = %q", got)
	}
	hotBody, err := io.ReadAll(hot.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBody, hotBody) {
		t.Fatal("hit body is not byte-identical to the cold body")
	}

	var art Artifact
	if err := json.Unmarshal(coldBody, &art); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(art.QASM, "OPENQASM 2.0;") {
		t.Fatalf("artifact QASM does not look like QASM: %.40q", art.QASM)
	}
	if art.TwoQubitGates <= 0 || art.Device != "full-grid-5x4" {
		t.Fatalf("artifact stats look wrong: %+v", art)
	}
	if cold.Header.Get("X-Trios-Key") != art.Key || !strings.HasPrefix(art.Key, "sha256:") {
		t.Fatalf("key header/body mismatch: %q vs %q", cold.Header.Get("X-Trios-Key"), art.Key)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", "{"},
		{"unknown field", `{"qsam": "typo"}`},
		{"no input", `{}`},
		{"bad topology", `{"benchmark": "bv-20", "topology": "moebius"}`},
		{"bad qasm", `{"qasm": "this is not qasm"}`},
		{"optimizer field", `{"benchmark":"bv-20","optimizer":"legacy"}`},
		{"groups pipeline", `{"benchmark":"bv-20","pipeline":"groups"}`},
		{"duplicate barrier qubit", `{"qasm": "qreg q[2]; barrier q[0], q[0];", "topology": "line"}`},
		{"non-finite parameter", `{"qasm": "qreg q[2]; rz(nan) q[0];", "topology": "line"}`},
		{"overflowing parameter", `{"qasm": "qreg q[2]; rz(1e308*pi) q[0];", "topology": "line"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	huge := `{"qasm": "` + strings.Repeat("x", maxRequestBytes+1024) + `"}`
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestHTTPUnprocessableCompile: a program the device cannot hold is a 422,
// whether its register is too wide or a whole-register mcx needs a
// borrowed wire past a register as wide as the device. The second is
// placed by identity, which, unlike greedy placement, does not check the
// width itself.
func TestHTTPUnprocessableCompile(t *testing.T) {
	_, ts := newTestServer(t)
	wide := "qreg q[20]; mcx q[0],q[1],q[2],q[3],q[4],q[5],q[6],q[7],q[8],q[9]," +
		"q[10],q[11],q[12],q[13],q[14],q[15],q[16],q[17],q[18],q[19];"
	for _, req := range []CompileRequest{
		{QASM: "qreg q[25]; cx q[0], q[24];", Topology: "line", Seed: seedp(1)},
		{QASM: wide, Topology: "line", Placement: "identity", Seed: seedp(1)},
	} {
		resp := postCompile(t, ts, req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422", req.QASM, resp.StatusCode)
		}
	}
}

func TestHTTPDevices(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var devs []deviceInfo
	if err := json.NewDecoder(resp.Body).Decode(&devs); err != nil {
		t.Fatal(err)
	}
	if len(devs) != 5 {
		t.Fatalf("got %d devices, want 5", len(devs))
	}
	if devs[0].Device != "ibmq-johannesburg" || devs[0].Qubits != 20 || devs[0].Edges != 23 {
		t.Fatalf("johannesburg entry looks wrong: %+v", devs[0])
	}
}

func TestHTTPHealthzAndVersion(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Build.Version == "" || h.Build.GoVersion == "" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestHTTPHealthzDraining(t *testing.T) {
	s, ts := newTestServer(t)
	// Warm the cache, then begin draining with the listener still up — the
	// order triosd uses, so load balancers see 503 before connections die.
	warm := CompileRequest{Benchmark: "bv-20", Topology: "line", Seed: seedp(4)}
	if resp := postCompile(t, ts, warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status = %d", resp.StatusCode)
	}
	s.BeginDrain()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", h.Status)
	}
	// New compiles are refused; cached artifacts keep serving.
	if compile := postCompile(t, ts, CompileRequest{Benchmark: "bv-20", Seed: seedp(99)}); compile.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining compile status = %d, want 503", compile.StatusCode)
	}
	hot := postCompile(t, ts, warm)
	if hot.StatusCode != http.StatusOK || hot.Header.Get("X-Trios-Cache") != "hit" {
		t.Fatalf("cached compile during drain: status=%d cache=%q", hot.StatusCode, hot.Header.Get("X-Trios-Cache"))
	}
}

func TestHTTPMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 2; i++ {
		// A response is counted once its handler returns, which the client
		// only observes at the end of the body: read it all before scraping.
		resp := postCompile(t, ts, CompileRequest{Benchmark: "bv-20", Topology: "line", Seed: seedp(2)})
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`triosd_requests_total{code="200"} 2`,
		"triosd_cache_hits_total 1",
		`triosd_compile_outcomes_total{outcome="hit"} 1`,
		`triosd_compile_outcomes_total{outcome="miss"} 1`,
		"triosd_http_seconds_bucket",
		`triosd_pass_seconds_bucket{pass="route:main"`,
		"triosd_queue_capacity",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestHTTPMethodRouting(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/compile = %d, want 405", resp.StatusCode)
	}
}
