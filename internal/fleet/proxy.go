package fleet

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"trios/internal/obs"
	"trios/internal/service"
	"trios/internal/version"
)

// maxRequestBytes mirrors the daemon's compile-body bound.
const maxRequestBytes = 4 << 20

// Options tunes a Proxy.
type Options struct {
	// Vnodes per replica on the hash ring (<= 0: DefaultVnodes).
	Vnodes int
	// HealthInterval between /healthz sweeps (<= 0: 500ms).
	HealthInterval time.Duration
	// KeyCacheEntries bounds the request-body -> cache-key memo (<= 0: 4096).
	KeyCacheEntries int
	// Tracer, when non-nil, records a span per routed compile (key resolve,
	// one forward span per attempt) and injects a W3C traceparent into every
	// forwarded request, so the replica's spans join the proxy's trace.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives structured warnings for routing events
	// (replica marked down, request unroutable).
	Logger *obs.Logger
}

// Proxy is the fleet front: it owns the ring, the health view, and the
// per-replica counters, and exposes the same wire surface as a single
// triosd, plus fleet-level health and metrics.
type Proxy struct {
	replicas []Replica
	ring     *Ring
	health   *HealthChecker
	client   *http.Client
	keys     *keyCache
	start    time.Time
	tracer   *obs.Tracer
	logger   *obs.Logger

	routed    []atomic.Uint64 // per replica: requests answered by it
	retried   []atomic.Uint64 // per replica: requests moved off it after failure
	resolveKO atomic.Uint64   // requests rejected before routing
	noReplica atomic.Uint64   // requests that exhausted every replica
}

// NewProxy builds a fleet proxy over replicas.
func NewProxy(replicas []Replica, opts Options) *Proxy {
	entries := opts.KeyCacheEntries
	if entries <= 0 {
		entries = 4096
	}
	return &Proxy{
		replicas: replicas,
		ring:     NewRing(replicas, opts.Vnodes),
		health:   NewHealthChecker(replicas, opts.HealthInterval),
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		keys:    newKeyCache(entries),
		start:   time.Now(),
		tracer:  opts.Tracer,
		logger:  opts.Logger,
		routed:  make([]atomic.Uint64, len(replicas)),
		retried: make([]atomic.Uint64, len(replicas)),
	}
}

// Run drives the health poller until ctx is cancelled.
func (p *Proxy) Run(ctx context.Context) { p.health.Run(ctx) }

// Handler returns the proxy's HTTP surface:
//
//	POST /v1/compile       — route by cache key to the home replica, with failover
//	GET  /v1/devices       — forwarded to a routable replica
//	GET  /v1/calibrations  — forwarded to a routable replica
//	GET  /healthz          — fleet health: per-replica status, 503 when none routable
//	GET  /metrics          — fleet routing counters (Prometheus text, + Go runtime health)
//	GET  /debug/traces     — recent + slowest routed traces (when tracing is on)
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", p.handleCompile)
	mux.HandleFunc("GET /v1/devices", p.forwardGET)
	mux.HandleFunc("GET /v1/calibrations", p.forwardGET)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.Handle("GET /debug/traces", p.tracer.DebugHandler())
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// compileKey maps a request body to its compile cache key, memoized on the
// exact body bytes: the fleet's steady state is a repeated mix, so the
// Resolve cost (parse + canonicalize + hash) is paid once per distinct body,
// not once per request.
func (p *Proxy) compileKey(body []byte) (string, error) {
	if key, ok := p.keys.get(body); ok {
		return key, nil
	}
	var req service.CompileRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", err
	}
	spec, err := service.Resolve(req)
	if err != nil {
		return "", err
	}
	p.keys.add(body, spec.Key)
	return spec.Key, nil
}

func (p *Proxy) handleCompile(w http.ResponseWriter, r *http.Request) {
	// Root span for this routed request. An inbound W3C traceparent (a client
	// that traces its own calls) is honored, so the proxy's spans — and, via
	// the injected header on each forward, the replica's — join that trace.
	var span *obs.Span
	if p.tracer != nil {
		ctx := r.Context()
		if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx, span = p.tracer.StartRemoteSpan(ctx, "POST /v1/compile", sc)
		} else {
			ctx, span = p.tracer.StartSpan(ctx, "POST /v1/compile")
		}
		w.Header().Set(obs.TraceHeader, span.TraceIDString())
		r = r.WithContext(ctx)
		defer span.End()
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		span.SetError(err)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	resolve := span.Child("proxy:resolve-key")
	key, err := p.compileKey(body)
	resolve.End()
	if err != nil {
		// The request would fail identically on any replica; reject it here
		// without spending fleet capacity (the daemon classifies these 400).
		p.resolveKO.Add(1)
		span.SetError(err)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	span.SetAttr("key", key)

	order := p.ring.Order(key)
	candidates := order[:0:0]
	for _, i := range order {
		if p.health.State(i).Routable() {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		// Health data may be stale (e.g. every replica flapped at once); try
		// the full ring order rather than refusing outright.
		candidates = order
	}

	attempts := 0
	for _, i := range candidates {
		attempts++
		fwd := span.Child("proxy:forward")
		fwd.SetAttr("replica", p.replicas[i].Name)
		resp, err := p.forward(r.Context(), i, body, fwd)
		if err != nil {
			// Transport-level failure: the replica is gone or unreachable.
			// Compiles are idempotent (content-addressed), so moving the
			// request to the next replica on the ring is always safe.
			fwd.SetError(err)
			fwd.End()
			p.health.MarkDown(i)
			p.retried[i].Add(1)
			p.logger.Warn("replica failed, retrying on next ring candidate",
				"replica", p.replicas[i].Name, "err", err.Error())
			continue
		}
		p.relay(w, resp, i, attempts)
		fwd.End()
		return
	}
	p.noReplica.Add(1)
	p.logger.Error("no replica reachable", "key", key, "attempted", attempts)
	err = fmt.Errorf("fleet: no replica reachable for key %s (%d attempted)", key, attempts)
	span.SetError(err)
	writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error()})
}

// forward posts one compile to replica i. When fwd is a live span, its
// context rides the request as a traceparent header, making the replica's
// server-side spans children of this attempt.
func (p *Proxy) forward(ctx context.Context, i int, body []byte, fwd *obs.Span) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.replicas[i].URL+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if fwd != nil {
		req.Header.Set(obs.TraceparentHeader, fwd.Context().Traceparent())
	}
	return p.client.Do(req)
}

// relay copies a replica response to the client, stamping which replica
// served it and how many attempts routing took.
func (p *Proxy) relay(w http.ResponseWriter, resp *http.Response, i, attempts int) {
	defer resp.Body.Close()
	p.routed[i].Add(1)
	// X-Trios-Trace is relayed too: with proxy tracing on it matches the
	// proxy's own header (the replica echoes the injected trace ID); with
	// proxy tracing off it hands the client the replica's trace ID instead
	// of nothing.
	for _, h := range []string{"Content-Type", "X-Trios-Cache", "X-Trios-Key", "X-Trios-Trace", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Trios-Replica", p.replicas[i].Name)
	w.Header().Set("X-Trios-Fleet-Attempts", fmt.Sprintf("%d", attempts))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// forwardGET relays a read-only registry endpoint to the first routable
// replica (they all serve identical registries).
func (p *Proxy) forwardGET(w http.ResponseWriter, r *http.Request) {
	for i := range p.replicas {
		if !p.health.State(i).Routable() {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.replicas[i].URL+r.URL.Path, nil)
		if err != nil {
			continue
		}
		resp, err := p.client.Do(req)
		if err != nil {
			p.health.MarkDown(i)
			continue
		}
		defer resp.Body.Close()
		if v := resp.Header.Get("Content-Type"); v != "" {
			w.Header().Set("Content-Type", v)
		}
		w.Header().Set("X-Trios-Replica", p.replicas[i].Name)
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		return
	}
	writeJSON(w, http.StatusBadGateway, errorBody{Error: "fleet: no routable replica"})
}

// fleetHealth is the proxy's /healthz response.
type fleetHealth struct {
	Status   string          `json:"status"` // ok | degraded | down
	Build    version.Info    `json:"build"`
	Uptime   float64         `json:"uptime_seconds"`
	Replicas []ReplicaHealth `json:"replicas"`
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snapshot, routable := p.health.Snapshot()
	body := fleetHealth{Build: version.Get(), Uptime: time.Since(p.start).Seconds(), Replicas: snapshot}
	code := http.StatusOK
	switch {
	case routable == len(p.replicas):
		body.Status = "ok"
	case routable > 0:
		body.Status = "degraded"
	default:
		body.Status = "down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE triosfleet_uptime_seconds gauge\ntriosfleet_uptime_seconds %g\n", time.Since(p.start).Seconds())
	fmt.Fprintf(w, "# TYPE triosfleet_routed_total counter\n")
	for i, rep := range p.replicas {
		fmt.Fprintf(w, "triosfleet_routed_total{replica=%q} %d\n", rep.Name, p.routed[i].Load())
	}
	fmt.Fprintf(w, "# TYPE triosfleet_retries_total counter\n")
	for i, rep := range p.replicas {
		fmt.Fprintf(w, "triosfleet_retries_total{replica=%q} %d\n", rep.Name, p.retried[i].Load())
	}
	fmt.Fprintf(w, "# TYPE triosfleet_resolve_failures_total counter\ntriosfleet_resolve_failures_total %d\n", p.resolveKO.Load())
	fmt.Fprintf(w, "# TYPE triosfleet_unroutable_total counter\ntriosfleet_unroutable_total %d\n", p.noReplica.Load())
	hits, misses := p.keys.stats()
	fmt.Fprintf(w, "# TYPE triosfleet_keycache_hits_total counter\ntriosfleet_keycache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# TYPE triosfleet_keycache_misses_total counter\ntriosfleet_keycache_misses_total %d\n", misses)
	obs.WriteRuntimeMetrics(w)
}

// keyCache memoizes request-body bytes -> compile cache key with a small
// LRU, so the proxy's Resolve cost amortizes across a repeated mix.
type keyCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	entries  map[string]*list.Element
	hits     uint64
	misses   uint64
}

type keyCacheEntry struct {
	body string
	key  string
}

func newKeyCache(capacity int) *keyCache {
	return &keyCache{capacity: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

func (c *keyCache) get(body []byte) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(body)]
	if !ok {
		c.misses++
		return "", false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*keyCacheEntry).key, true
}

func (c *keyCache) add(body []byte, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := string(body)
	if e, ok := c.entries[s]; ok {
		c.ll.MoveToFront(e)
		return
	}
	c.entries[s] = c.ll.PushFront(&keyCacheEntry{body: s, key: key})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*keyCacheEntry).body)
	}
}

func (c *keyCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
