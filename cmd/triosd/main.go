// Command triosd serves the Trios compiler over HTTP: POST /v1/compile
// compiles OpenQASM 2.0 (or a named benchmark) for a target device with the
// same pipelines, options, and bit-identical output as the trios CLI, backed
// by a content-addressed compile cache, singleflight request coalescing, and
// bounded-queue admission control (429 on overload). Requests may name a
// device calibration (see GET /v1/calibrations) for noise-aware,
// fidelity-annotated compiles. GET /v1/devices lists topologies, /healthz
// reports liveness and build identity, /metrics exports Prometheus counters
// plus Go runtime health. SIGINT/SIGTERM drains gracefully: in-flight
// compiles finish (up to -grace), new work is refused with 503.
//
// POST /v1/compile/stream compiles a raw OpenQASM 2.0 body of unbounded
// length in fixed memory, streaming the compiled program back window by
// window (options as query parameters; ?window=N sets the window size). The
// compile cache is bypassed (X-Trios-Cache: bypass) and a final
// "// trios-stream:" comment carries the run's stats.
//
// With -store-dir the in-memory cache is backed by a disk-based,
// content-addressed artifact store: cold compiles are written through and a
// restarted daemon serves a previously-seen mix warm (X-Trios-Cache:
// hit-disk), with bodies byte-identical to the cold compiles that populated
// the store.
//
// Observability: requests are traced by default (-trace=false disables) —
// every /v1/ request records a span tree (cache probe, queue wait, per-pass
// compile, store flush) into a bounded in-process ring served at GET
// /debug/traces, and the trace ID is echoed in the X-Trios-Trace response
// header. Inbound W3C traceparent headers are honored, so a request routed
// through triosfleet carries one trace ID end to end. Logs are structured
// (-log-format logfmt|json, -log-level debug|info|warn|error), and -debug-addr
// starts a separate listener with net/http/pprof plus the trace ring.
//
// Usage:
//
//	triosd -addr :8421 -workers 4 -queue 64 -cache 512 -store-dir /var/lib/triosd
//	curl -s localhost:8421/healthz
//	curl -s localhost:8421/v1/calibrations
//	curl -s -X POST localhost:8421/v1/compile -d '{"benchmark":"grovers-9","pipeline":"trios","calibration":"johannesburg-0819"}'
//	curl -s localhost:8421/debug/traces            # recent + slowest span trees
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trios/internal/obs"
	"trios/internal/service"
	"trios/internal/store"
	"trios/internal/version"
)

// errFlagParse marks a flag error the FlagSet already reported to stderr;
// main must not print it a second time.
var errFlagParse = errors.New("invalid arguments")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		if errors.Is(err, errFlagParse) {
			os.Exit(2) // usage error, already reported; 2 matches flag.ExitOnError
		}
		log.Fatalf("triosd: %v", err)
	}
}

// serveConfig carries the resolved daemon configuration from flag parsing to
// serve — one struct instead of a dozen positional parameters.
type serveConfig struct {
	addr          string
	debugAddr     string // "" = no debug listener
	workers       int
	queue         int
	cacheSize     int
	storeDir      string
	storeMaxBytes int64
	grace         time.Duration

	logger *obs.Logger
	tracer *obs.Tracer // nil = tracing disabled

	// ready, when non-nil, is called with the bound serving listener address
	// once the daemon accepts connections; debugReady likewise for the debug
	// listener (tests bind :0 and use these to find the ports).
	ready      func(net.Addr)
	debugReady func(net.Addr)
}

// run is the testable daemon entry point: flags come from args, -version
// output goes to out, and the daemon serves until ctx is cancelled, then
// drains gracefully. ready, when non-nil, is called with the bound listener
// address once the daemon is accepting connections — tests bind :0 and use
// it to find the port.
func run(ctx context.Context, args []string, out io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("triosd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8421", "listen address")
		debugAddr     = fs.String("debug-addr", "", "separate listener for /debug/pprof and /debug/traces ('' = off)")
		workers       = fs.Int("workers", 0, "compile workers (0 = GOMAXPROCS)")
		queue         = fs.Int("queue", 64, "admission queue depth; overflow is shed with 429")
		cacheSize     = fs.Int("cache", 512, "compile cache capacity in artifacts")
		storeDir      = fs.String("store-dir", "", "persistent artifact store directory ('' = memory-only; restarts are cold)")
		storeMaxBytes = fs.Int64("store-max-bytes", store.DefaultMaxBytes, "artifact store byte budget; LRU entries beyond it are evicted")
		grace         = fs.Duration("grace", 15*time.Second, "graceful-drain deadline on shutdown")
		trace         = fs.Bool("trace", true, "record request span trees, served at /debug/traces")
		logLevel      = fs.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat     = fs.String("log-format", "logfmt", "log format: logfmt or json")
		showVersion   = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help printed usage; that is success
		}
		return fmt.Errorf("%w: %v", errFlagParse, err)
	}
	if *showVersion {
		fmt.Fprintln(out, version.Get())
		return nil
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return fmt.Errorf("%w: %v", errFlagParse, err)
	}
	format, err := obs.ParseFormat(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return fmt.Errorf("%w: %v", errFlagParse, err)
	}
	cfg := serveConfig{
		addr:          *addr,
		debugAddr:     *debugAddr,
		workers:       *workers,
		queue:         *queue,
		cacheSize:     *cacheSize,
		storeDir:      *storeDir,
		storeMaxBytes: *storeMaxBytes,
		grace:         *grace,
		logger:        obs.NewLogger(os.Stderr, level, format),
		ready:         ready,
	}
	if *trace {
		cfg.tracer = obs.NewTracer()
	}
	return serve(ctx, cfg)
}

func serve(ctx context.Context, cfg serveConfig) error {
	logger := cfg.logger
	var st *store.Store
	if cfg.storeDir != "" {
		var err error
		st, err = store.Open(cfg.storeDir, cfg.storeMaxBytes)
		if err != nil {
			return err
		}
		stats := st.Stats()
		logger.Info(fmt.Sprintf("triosd artifact store %s: %d entries, %d bytes (rebuilt=%v)",
			cfg.storeDir, stats.Entries, stats.Bytes, stats.Rebuilt))
		defer st.Close() // persist the recency index on every exit path
	}
	svc := service.New(service.Config{
		Workers:      cfg.workers,
		QueueDepth:   cfg.queue,
		CacheEntries: cfg.cacheSize,
		Store:        st,
		Tracer:       cfg.tracer,
		Logger:       logger,
	})
	srv := &http.Server{
		Handler: svc.Handler(),
		// Bound what a slow or stalled client can pin: headers must arrive
		// promptly and a request body within a minute, otherwise the
		// connection's goroutine would sit in front of admission control
		// forever (and hold Shutdown open until the grace deadline). No
		// WriteTimeout: response time is bounded by the compile itself,
		// which the admission queue already controls.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// One cleanup for every exit path, error returns included: it closes
	// the servers and the listeners opened below, and the service within
	// the grace deadline, so nothing serve started outlives it. After a
	// graceful drain every step is a no-op.
	var (
		ln, dln  net.Listener
		debugSrv *http.Server
	)
	defer func() {
		for _, l := range []net.Listener{ln, dln} {
			if l != nil {
				_ = l.Close()
			}
		}
		_ = srv.Close()
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
		closeCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
		defer cancel()
		_ = svc.Close(closeCtx)
	}()

	var err error
	ln, err = net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	logger.Info(fmt.Sprintf("triosd listening on %s (%s, workers=%d queue=%d cache=%d)",
		ln.Addr(), version.Get(), cfg.workers, cfg.queue, cfg.cacheSize),
		"trace", cfg.tracer != nil)
	if cfg.ready != nil {
		cfg.ready(ln.Addr())
	}

	// The opt-in debug listener: pprof + the trace ring, on its own port so
	// profiling endpoints never share the serving surface.
	if cfg.debugAddr != "" {
		dln, err = net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return err
		}
		debugSrv = &http.Server{Handler: obs.DebugMux(cfg.tracer), ReadHeaderTimeout: 10 * time.Second}
		logger.Info(fmt.Sprintf("triosd debug listening on %s (pprof + traces)", dln.Addr()))
		if cfg.debugReady != nil {
			cfg.debugReady(dln.Addr())
		}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("triosd debug listener failed", "err", err.Error())
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	logger.Info(fmt.Sprintf("triosd draining (deadline %s)", cfg.grace))
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	// Flip to draining FIRST, while the listener is still up: load balancers
	// polling /healthz see 503 and stop routing, and requests that still
	// arrive get 503 for new compiles (cache hits keep serving). Only then
	// stop accepting connections, finish open requests, and drain the pool.
	svc.BeginDrain()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(drainCtx)
	}
	if err := svc.Close(drainCtx); err != nil {
		logger.Warn(fmt.Sprintf("triosd: drain deadline cut compilations short: %v", err))
	}
	logger.Info("triosd stopped")
	return nil
}
