package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"trios/internal/device"
	"trios/internal/obs"
	"trios/internal/store"
	"trios/internal/topo"
	"trios/internal/version"
)

// maxRequestBytes bounds POST /v1/compile bodies; QASM for 20-qubit devices
// is far below this, so anything larger is abuse, not workload.
const maxRequestBytes = 4 << 20

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/compile        — compile QASM (or a named benchmark) for a device
//	POST /v1/compile/stream — windowed streaming compile of a raw QASM body
//	GET  /v1/devices       — the device registry
//	GET  /v1/calibrations  — the calibration registry
//	GET  /healthz          — liveness + build identity (503 while draining)
//	GET  /metrics          — Prometheus text exposition (+ Go runtime health)
//	GET  /debug/traces     — recent + slowest request traces (when tracing is on)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/compile/stream", s.handleCompileStream)
	mux.HandleFunc("GET /v1/devices", s.handleDevices)
	mux.HandleFunc("GET /v1/calibrations", s.handleCalibrations)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/traces", s.cfg.Tracer.DebugHandler())
	return s.instrument(mux)
}

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush/EnableFullDuplex through this wrapper — the streaming compile
// endpoint needs both.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with metrics and, for /v1/ routes, tracing: each
// request gets a root span (joined to the caller's trace when a W3C
// traceparent header is present — the fleet proxy injects one) and the trace
// ID is echoed in the X-Trios-Trace response header so a client can find its
// request at /debug/traces. Health polls and metric scrapes are deliberately
// not traced; they would flood the ring with noise.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		var span *obs.Span
		if s.cfg.Tracer != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
			ctx := r.Context()
			name := r.Method + " " + r.URL.Path
			if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
				ctx, span = s.cfg.Tracer.StartRemoteSpan(ctx, name, sc)
			} else {
				ctx, span = s.cfg.Tracer.StartSpan(ctx, name)
			}
			w.Header().Set(obs.TraceHeader, span.TraceIDString())
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(sw, r)
		if span != nil {
			span.SetAttr("status", strconv.Itoa(sw.code))
			span.End()
		}
		s.metrics.countResponse(sw.code, time.Since(start).Seconds())
	})
}

// errorBody is the JSON error envelope for every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (s *Service) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := Resolve(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	span := obs.SpanFromContext(r.Context())
	art, outcome, err := s.Compile(r.Context(), spec)
	if err != nil {
		// Request-shape problems were all caught by Resolve above; Compile
		// only fails with admission, drain, pipeline, or context errors.
		var compErr *CompileError
		switch {
		case errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &compErr):
			writeError(w, http.StatusUnprocessableEntity, err)
		case errors.Is(err, r.Context().Err()):
			// The client went away; the code is for the access log only.
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	span.SetAttr("outcome", outcome)
	span.SetAttr("key", art.Key)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Trios-Cache", outcome)
	w.Header().Set("X-Trios-Key", art.Key)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(art.Body)
}

// deviceInfo describes one registry topology.
type deviceInfo struct {
	Name   string `json:"name"`   // CLI / request name
	Device string `json:"device"` // canonical graph name
	Qubits int    `json:"qubits"`
	Edges  int    `json:"edges"`
}

func (s *Service) handleDevices(w http.ResponseWriter, r *http.Request) {
	names := topo.Names()
	out := make([]deviceInfo, 0, len(names))
	for _, n := range names {
		g, err := deviceByName(n)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, deviceInfo{Name: n, Device: g.Name(), Qubits: g.NumQubits(), Edges: len(g.EdgeList())})
	}
	writeJSON(w, http.StatusOK, out)
}

// calibrationInfo describes one registry calibration.
type calibrationInfo struct {
	Name   string `json:"name"`
	Device string `json:"device"`
	Qubits int    `json:"qubits"`
	Edges  int    `json:"edges"`
	// MeanTwoQubitError and WorstTwoQubitError summarize the coupling table.
	MeanTwoQubitError  float64 `json:"mean_two_qubit_error"`
	WorstTwoQubitError float64 `json:"worst_two_qubit_error"`
	// Digest is the content address folded into compile cache keys.
	Digest string `json:"digest"`
}

func (s *Service) handleCalibrations(w http.ResponseWriter, r *http.Request) {
	names := device.Names()
	out := make([]calibrationInfo, 0, len(names))
	for _, n := range names {
		cal, err := device.ByName(n)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, calibrationInfo{
			Name:               cal.Name,
			Device:             cal.Device,
			Qubits:             cal.Qubits,
			Edges:              len(cal.TwoQubitError),
			MeanTwoQubitError:  cal.MeanTwoQubitError(),
			WorstTwoQubitError: cal.WorstEdgeError(),
			Digest:             cal.Digest(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// healthBody is the /healthz response. Workers and GOMAXPROCS expose the
// daemon's real parallelism so harnesses can record the effective worker
// count in their benchmark artifacts instead of guessing.
type healthBody struct {
	Status     string       `json:"status"`
	Build      version.Info `json:"build"`
	Uptime     float64      `json:"uptime_seconds"`
	InFlt      int64        `json:"in_flight"`
	Queue      int          `json:"queue_depth"`
	QueueCp    int          `json:"queue_capacity"`
	Cached     int          `json:"cache_entries"`
	Workers    int          `json:"workers"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	// Store summarizes the persistent artifact tier; omitted when the daemon
	// runs memory-only.
	Store *storeHealth `json:"store,omitempty"`
}

// storeHealth is the /healthz view of the persistent artifact store.
type storeHealth struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Hits        uint64 `json:"hits"`
	Quarantined uint64 `json:"quarantined"`
	Rebuilt     bool   `json:"rebuilt"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	qlen, qcap := s.QueueStats()
	body := healthBody{
		Status:     "ok",
		Build:      version.Get(),
		Uptime:     time.Since(s.metrics.start).Seconds(),
		InFlt:      s.metrics.inFlight.Load(),
		Queue:      qlen,
		QueueCp:    qcap,
		Cached:     s.cache.Len(),
		Workers:    s.workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if s.store != nil {
		st := s.store.Stats()
		body.Store = &storeHealth{
			Entries:     st.Entries,
			Bytes:       st.Bytes,
			Hits:        st.Hits,
			Quarantined: st.Quarantined,
			Rebuilt:     st.Rebuilt,
		}
	}
	code := http.StatusOK
	if s.Draining() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	qlen, qcap := s.QueueStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var storeStats *store.Stats
	if s.store != nil {
		st := s.store.Stats()
		storeStats = &st
	}
	s.metrics.write(w, s.cache.Stats(), storeStats, qlen, qcap)
	obs.WriteRuntimeMetrics(w)
}
