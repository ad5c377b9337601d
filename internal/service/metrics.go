package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trios/internal/store"
)

// defaultBuckets are latency histogram upper bounds in seconds, spanning
// table-lookup cache hits (sub-millisecond) to heavyweight compiles.
var defaultBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// histogram is a fixed-bucket latency histogram rendered in Prometheus text
// exposition format (cumulative buckets + sum + count).
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

func newHistogram() *histogram {
	return &histogram{bounds: defaultBuckets, counts: make([]uint64, len(defaultBuckets))}
}

func (h *histogram) observe(seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range h.bounds {
		if seconds <= b {
			h.counts[i]++
			break
		}
	}
	h.sum += seconds
	h.count++
}

// write renders the histogram as name{labels...}_bucket/_sum/_count lines.
// labels is either empty or a `key="value"` fragment without braces.
func (h *histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(labels), strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(labels), h.count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braced(labels), h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.count)
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// metrics aggregates the serving counters exported at /metrics.
type metrics struct {
	start    time.Time
	inFlight atomic.Int64

	mu                sync.Mutex
	byCode            map[int]uint64    // HTTP responses by status code
	outcomes          map[string]uint64 // compile outcomes: hit | hit-disk | miss | coalesced
	rejected          uint64            // admission-control 429s
	storeWriteErrors  uint64            // write-behind Put failures
	storeDecodeErrors uint64            // store bodies that failed to unmarshal
	passHist          map[string]*histogram

	// Streaming-compile counters: outcomes (ok | error | rejected) plus the
	// cumulative gate and window volume that flowed through the endpoint.
	streams       map[string]uint64
	streamGates   uint64
	streamWindows uint64

	compileHist *histogram // full compile wall-clock (cache misses only)
	httpHist    *histogram // request wall-clock as the handler saw it
	streamHist  *histogram // streaming compile wall-clock (successes only)
}

func newMetrics() *metrics {
	return &metrics{
		start:       time.Now(),
		byCode:      make(map[int]uint64),
		outcomes:    make(map[string]uint64),
		passHist:    make(map[string]*histogram),
		streams:     make(map[string]uint64),
		compileHist: newHistogram(),
		httpHist:    newHistogram(),
		streamHist:  newHistogram(),
	}
}

func (m *metrics) countResponse(code int, seconds float64) {
	m.mu.Lock()
	m.byCode[code]++
	m.mu.Unlock()
	m.httpHist.observe(seconds)
}

func (m *metrics) countOutcome(outcome string) {
	m.mu.Lock()
	m.outcomes[outcome]++
	m.mu.Unlock()
}

func (m *metrics) countRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// countStream records one streaming-compile outcome and, for successes, the
// gate and window volume it moved.
func (m *metrics) countStream(outcome string, gates, windows int) {
	m.mu.Lock()
	m.streams[outcome]++
	m.streamGates += uint64(gates)
	m.streamWindows += uint64(windows)
	m.mu.Unlock()
}

func (m *metrics) countStoreWriteError() {
	m.mu.Lock()
	m.storeWriteErrors++
	m.mu.Unlock()
}

func (m *metrics) countStoreDecodeError() {
	m.mu.Lock()
	m.storeDecodeErrors++
	m.mu.Unlock()
}

// observePasses records per-pass latencies from one cold compile. Cached
// front-pass metrics are skipped: the pass did not run for this request.
func (m *metrics) observePasses(a *Artifact) {
	for _, p := range a.Passes {
		if p.Cached {
			continue
		}
		m.mu.Lock()
		h := m.passHist[p.Pass]
		if h == nil {
			h = newHistogram()
			m.passHist[p.Pass] = h
		}
		m.mu.Unlock()
		h.observe(p.Duration.Seconds())
	}
}

// write renders every counter in Prometheus text exposition format. The
// cache, store, and queue gauges come from the caller so the metrics type
// stays decoupled from the service internals; storeStats is nil when the
// daemon runs memory-only.
func (m *metrics) write(w io.Writer, cache CacheStats, storeStats *store.Stats, queueLen, queueCap int) {
	fmt.Fprintf(w, "# TYPE triosd_uptime_seconds gauge\ntriosd_uptime_seconds %g\n", time.Since(m.start).Seconds())
	fmt.Fprintf(w, "# TYPE triosd_in_flight_requests gauge\ntriosd_in_flight_requests %d\n", m.inFlight.Load())
	fmt.Fprintf(w, "# TYPE triosd_queue_depth gauge\ntriosd_queue_depth %d\n", queueLen)
	fmt.Fprintf(w, "# TYPE triosd_queue_capacity gauge\ntriosd_queue_capacity %d\n", queueCap)

	m.mu.Lock()
	codes := make([]int, 0, len(m.byCode))
	for c := range m.byCode {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Fprintf(w, "# TYPE triosd_requests_total counter\n")
	for _, c := range codes {
		fmt.Fprintf(w, "triosd_requests_total{code=\"%d\"} %d\n", c, m.byCode[c])
	}
	outs := make([]string, 0, len(m.outcomes))
	for o := range m.outcomes {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	fmt.Fprintf(w, "# TYPE triosd_compile_outcomes_total counter\n")
	for _, o := range outs {
		fmt.Fprintf(w, "triosd_compile_outcomes_total{outcome=%q} %d\n", o, m.outcomes[o])
	}
	fmt.Fprintf(w, "# TYPE triosd_rejected_total counter\ntriosd_rejected_total %d\n", m.rejected)
	souts := make([]string, 0, len(m.streams))
	for o := range m.streams {
		souts = append(souts, o)
	}
	sort.Strings(souts)
	fmt.Fprintf(w, "# TYPE triosd_stream_total counter\n")
	for _, o := range souts {
		fmt.Fprintf(w, "triosd_stream_total{outcome=%q} %d\n", o, m.streams[o])
	}
	fmt.Fprintf(w, "# TYPE triosd_stream_gates_total counter\ntriosd_stream_gates_total %d\n", m.streamGates)
	fmt.Fprintf(w, "# TYPE triosd_stream_windows_total counter\ntriosd_stream_windows_total %d\n", m.streamWindows)
	passes := make([]string, 0, len(m.passHist))
	for p := range m.passHist {
		passes = append(passes, p)
	}
	sort.Strings(passes)
	passHists := make([]*histogram, len(passes))
	for i, p := range passes {
		passHists[i] = m.passHist[p]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE triosd_cache_hits_total counter\ntriosd_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "# TYPE triosd_cache_misses_total counter\ntriosd_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "# TYPE triosd_cache_evictions_total counter\ntriosd_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(w, "# TYPE triosd_cache_entries gauge\ntriosd_cache_entries %d\n", cache.Entries)
	fmt.Fprintf(w, "# TYPE triosd_cache_bytes gauge\ntriosd_cache_bytes %d\n", cache.Bytes)

	if storeStats != nil {
		fmt.Fprintf(w, "# TYPE triosd_store_hits_total counter\ntriosd_store_hits_total %d\n", storeStats.Hits)
		fmt.Fprintf(w, "# TYPE triosd_store_misses_total counter\ntriosd_store_misses_total %d\n", storeStats.Misses)
		fmt.Fprintf(w, "# TYPE triosd_store_puts_total counter\ntriosd_store_puts_total %d\n", storeStats.Puts)
		fmt.Fprintf(w, "# TYPE triosd_store_evictions_total counter\ntriosd_store_evictions_total %d\n", storeStats.Evictions)
		fmt.Fprintf(w, "# TYPE triosd_store_quarantined_total counter\ntriosd_store_quarantined_total %d\n", storeStats.Quarantined)
		fmt.Fprintf(w, "# TYPE triosd_store_entries gauge\ntriosd_store_entries %d\n", storeStats.Entries)
		fmt.Fprintf(w, "# TYPE triosd_store_bytes gauge\ntriosd_store_bytes %d\n", storeStats.Bytes)
		m.mu.Lock()
		fmt.Fprintf(w, "# TYPE triosd_store_write_errors_total counter\ntriosd_store_write_errors_total %d\n", m.storeWriteErrors)
		fmt.Fprintf(w, "# TYPE triosd_store_decode_errors_total counter\ntriosd_store_decode_errors_total %d\n", m.storeDecodeErrors)
		m.mu.Unlock()
	}

	fmt.Fprintf(w, "# TYPE triosd_http_seconds histogram\n")
	m.httpHist.write(w, "triosd_http_seconds", "")
	fmt.Fprintf(w, "# TYPE triosd_compile_seconds histogram\n")
	m.compileHist.write(w, "triosd_compile_seconds", "")
	fmt.Fprintf(w, "# TYPE triosd_stream_seconds histogram\n")
	m.streamHist.write(w, "triosd_stream_seconds", "")
	fmt.Fprintf(w, "# TYPE triosd_pass_seconds histogram\n")
	for i, p := range passes {
		passHists[i].write(w, "triosd_pass_seconds", fmt.Sprintf("pass=%q", p))
	}
}
