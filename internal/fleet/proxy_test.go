package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trios/internal/service"
)

// fakeReplica is a stub triosd: it answers compiles with a body identifying
// itself, serves /healthz with a configurable status, and counts traffic.
type fakeReplica struct {
	name     string
	server   *httptest.Server
	compiles int
	healthz  func(w http.ResponseWriter)
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name}
	f.healthz = func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, `{"status":"ok"}`)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", func(w http.ResponseWriter, r *http.Request) {
		f.compiles++
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Trios-Cache", "miss")
		fmt.Fprintf(w, `{"served_by":%q}`, f.name)
	})
	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"devices":["johannesburg"],"served_by":%q}`, f.name)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.healthz(w)
	})
	f.server = httptest.NewServer(mux)
	t.Cleanup(f.server.Close)
	return f
}

func fleetOf(t *testing.T, fakes []*fakeReplica) (*Proxy, *httptest.Server) {
	t.Helper()
	replicas := make([]Replica, len(fakes))
	for i, f := range fakes {
		replicas[i] = Replica{Name: f.name, URL: f.server.URL}
	}
	p := NewProxy(replicas, Options{})
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	return p, front
}

// compileBody builds a distinct valid compile request per seed.
func compileBody(seed int) string {
	return fmt.Sprintf(`{"benchmark":"grovers-9","pipeline":"trios","seed":%d}`, seed)
}

// keyOf resolves a request body to its compile cache key the same way the
// proxy does.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	var req service.CompileRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := service.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Key
}

func postFleet(t *testing.T, front, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(front+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, raw
}

// TestProxyKeyStickiness: the same body always lands on its home replica, and
// repeat requests resolve the key from the memo, not a fresh parse.
func TestProxyKeyStickiness(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "r0"), newFakeReplica(t, "r1"), newFakeReplica(t, "r2")}
	p, front := fleetOf(t, fakes)

	body := compileBody(1)
	home := p.Ring().Home(keyOf(t, body))
	for i := 0; i < 10; i++ {
		resp, raw := postFleet(t, front.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d: %s", i, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Trios-Replica"); got != fakes[home].name {
			t.Fatalf("request %d served by %q, want home %q", i, got, fakes[home].name)
		}
		if resp.Header.Get("X-Trios-Fleet-Attempts") != "1" {
			t.Fatalf("request %d took %s attempts, want 1", i, resp.Header.Get("X-Trios-Fleet-Attempts"))
		}
	}
	if fakes[home].compiles != 10 {
		t.Fatalf("home replica served %d compiles, want 10", fakes[home].compiles)
	}
	if hits, _ := p.keys.stats(); hits != 9 {
		t.Fatalf("keycache hits = %d, want 9 (first request is the miss)", hits)
	}
}

// TestProxySpreadsDistinctKeys: a varied mix reaches more than one replica.
func TestProxySpreadsDistinctKeys(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "r0"), newFakeReplica(t, "r1"), newFakeReplica(t, "r2")}
	_, front := fleetOf(t, fakes)
	for seed := 0; seed < 30; seed++ {
		if resp, raw := postFleet(t, front.URL, compileBody(seed)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d status %d: %s", seed, resp.StatusCode, raw)
		}
	}
	busy := 0
	for _, f := range fakes {
		if f.compiles > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 3 replicas saw traffic across 30 distinct keys", busy)
	}
}

// TestProxyRetriesNextReplica: when a key's home replica is unreachable the
// request fails over along the ring and the replica is marked down.
func TestProxyRetriesNextReplica(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "r0"), newFakeReplica(t, "r1"), newFakeReplica(t, "r2")}
	p, front := fleetOf(t, fakes)

	// Find a body homed on replica 1, then kill replica 1.
	victim := 1
	body := ""
	for seed := 0; seed < 1000; seed++ {
		if b := compileBody(seed); p.Ring().Home(keyOf(t, b)) == victim {
			body = b
			break
		}
	}
	if body == "" {
		t.Fatal("no seed homed on the victim replica")
	}
	fakes[victim].server.Close()

	resp, raw := postFleet(t, front.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Trios-Replica"); got == fakes[victim].name {
		t.Fatalf("request served by the dead replica %q", got)
	}
	if resp.Header.Get("X-Trios-Fleet-Attempts") != "2" {
		t.Fatalf("failover took %s attempts, want 2", resp.Header.Get("X-Trios-Fleet-Attempts"))
	}
	if p.Health().State(victim) != StatusDown {
		t.Fatalf("victim state %v, want down", p.Health().State(victim))
	}

	// The next request with the same key skips the dead replica outright.
	resp, _ = postFleet(t, front.URL, body)
	if resp.Header.Get("X-Trios-Fleet-Attempts") != "1" {
		t.Fatalf("post-demotion request took %s attempts, want 1", resp.Header.Get("X-Trios-Fleet-Attempts"))
	}
}

// TestProxyAvoidsDrainingReplica: a replica reporting "draining" on /healthz
// is routed around for new compiles.
func TestProxyAvoidsDrainingReplica(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "r0"), newFakeReplica(t, "r1"), newFakeReplica(t, "r2")}
	p, front := fleetOf(t, fakes)

	victim := 2
	fakes[victim].healthz = func(w http.ResponseWriter) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"status":"draining"}`)
	}
	p.Health().sweep(context.Background())
	if got := p.Health().State(victim); got != StatusDraining {
		t.Fatalf("victim state %v after sweep, want draining", got)
	}

	body := ""
	for seed := 0; seed < 1000; seed++ {
		if b := compileBody(seed); p.Ring().Home(keyOf(t, b)) == victim {
			body = b
			break
		}
	}
	if body == "" {
		t.Fatal("no seed homed on the draining replica")
	}
	resp, raw := postFleet(t, front.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Trios-Replica"); got == fakes[victim].name {
		t.Fatalf("compile routed to draining replica %q", got)
	}
	if fakes[victim].compiles != 0 {
		t.Fatalf("draining replica served %d compiles, want 0", fakes[victim].compiles)
	}
}

// TestProxyHealthzAggregation: fleet health is ok / degraded / down as
// replicas drop, with 503 only when nothing is routable.
func TestProxyHealthzAggregation(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "r0"), newFakeReplica(t, "r1")}
	p, front := fleetOf(t, fakes)
	p.Health().sweep(context.Background())

	get := func() (int, fleetHealth) {
		t.Helper()
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body fleetHealth
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get(); code != http.StatusOK || body.Status != "ok" || len(body.Replicas) != 2 {
		t.Fatalf("healthy fleet: code %d body %+v", code, body)
	}
	p.Health().MarkDown(0)
	if code, body := get(); code != http.StatusOK || body.Status != "degraded" {
		t.Fatalf("degraded fleet: code %d body %+v", code, body)
	}
	p.Health().MarkDown(1)
	if code, body := get(); code != http.StatusServiceUnavailable || body.Status != "down" {
		t.Fatalf("down fleet: code %d body %+v", code, body)
	}
}

// TestProxyRejectsBadRequests: malformed and unresolvable bodies are 400 at
// the proxy without consuming replica capacity.
func TestProxyRejectsBadRequests(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "r0")}
	p, front := fleetOf(t, fakes)
	for _, body := range []string{`{not json`, `{"benchmark":"no-such-benchmark"}`, `{"unknown_field":1}`} {
		resp, raw := postFleet(t, front.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d (%s), want 400", body, resp.StatusCode, raw)
		}
	}
	if fakes[0].compiles != 0 {
		t.Fatalf("replica saw %d compiles for invalid requests", fakes[0].compiles)
	}
	if p.resolveKO.Load() != 3 {
		t.Fatalf("resolve failures = %d, want 3", p.resolveKO.Load())
	}
}

// TestProxyForwardsRegistryReads: /v1/devices rides through to a routable
// replica.
func TestProxyForwardsRegistryReads(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "r0"), newFakeReplica(t, "r1")}
	_, front := fleetOf(t, fakes)
	resp, err := http.Get(front.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "johannesburg") {
		t.Fatalf("/v1/devices status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("X-Trios-Replica") == "" {
		t.Fatal("forwarded read missing X-Trios-Replica")
	}
}

// TestProxyMetrics: routing counters come out in Prometheus text form.
func TestProxyMetrics(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "r0")}
	_, front := fleetOf(t, fakes)
	postFleet(t, front.URL, compileBody(1))
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{`triosfleet_routed_total{replica="r0"} 1`, "triosfleet_keycache_misses_total 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// Health exposes the checker.
func (p *Proxy) Health() *HealthChecker { return p.health }

// Ring exposes the hash ring (tests).
func (p *Proxy) Ring() *Ring { return p.ring }
