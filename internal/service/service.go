package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trios/internal/compiler"
	"trios/internal/obs"
	"trios/internal/qasm"
	"trios/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers caps concurrent compilations (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue between the HTTP layer and the
	// compile workers. A full queue sheds load (ErrOverloaded -> 429) instead
	// of queueing unboundedly. Default 64.
	QueueDepth int
	// CacheEntries bounds the artifact LRU. Default 512.
	CacheEntries int
	// Store, when non-nil, backs the in-memory LRU with a persistent
	// second tier: cold compiles are written through (write-behind, flushed
	// on drain) and in-memory misses probe the store before compiling, so a
	// restarted daemon serves a previously-seen mix warm. The service uses
	// the store for the daemon's lifetime; closing it remains the opener's
	// job, after Close returns.
	Store *store.Store
	// Tracer, when non-nil, records a span tree per /v1/ request (cache probe,
	// singleflight, queue wait, per-pass compile, write-behind flush) into an
	// in-process ring served at GET /debug/traces. Nil disables tracing; every
	// span call site degrades to a no-op.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives structured warnings for conditions the
	// service absorbs rather than surfaces (store write/decode failures).
	Logger *obs.Logger
}

var (
	// ErrOverloaded reports that the admission queue was full; the HTTP
	// layer maps it to 429.
	ErrOverloaded = errors.New("service: compile queue full")
	// ErrDraining reports that the service has stopped admitting work; the
	// HTTP layer maps it to 503.
	ErrDraining = errors.New("service: draining")
)

// CompileError wraps a pipeline failure for an admissible, well-formed
// request (e.g. a circuit larger than the device); the HTTP layer maps it to
// 422 to distinguish "your program cannot compile" from "your request is
// malformed" (400) and from server trouble (5xx).
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }
func (e *CompileError) Unwrap() error { return e.Err }

// Service is the compile-serving core: in-memory cache in front, an optional
// persistent artifact store behind it, singleflight behind that, and a
// bounded queue into the compiler's persistent worker pool at the bottom.
// One Service instance serves all requests of a daemon.
type Service struct {
	cfg     Config
	cache   *Cache
	flight  flightGroup
	metrics *metrics
	queue   chan compiler.Job
	workers int // resolved worker count (cfg.Workers or GOMAXPROCS)

	// streamSem admission-controls /v1/compile/stream: streaming compiles
	// bypass the job queue (each holds its connection for the whole compile)
	// and take one of its own workers-many slots. The budget is separate
	// from the compile pool's workers goroutines, so up to workers pool
	// compiles and workers streams can run at once.
	streamSem chan struct{}

	// Write-behind machinery for the persistent tier: cold compiles enqueue
	// here and a single writer goroutine lands them on disk off the request
	// path. Close stops the writer only after sweeping the queue dry, so a
	// graceful drain hands every dirty entry to the store. Each item carries
	// the request's store:flush span so the flush latency (queue wait + disk
	// write) lands in the originating trace even though it completes after the
	// response was sent.
	store      *store.Store
	storeQueue chan storeItem
	storeStop  chan struct{}
	storeDone  chan struct{}

	mu      sync.Mutex
	waiters map[string]chan compiler.JobResult

	nextID    atomic.Uint64
	closing   atomic.Bool
	closeOnce sync.Once
	inflight  sync.WaitGroup

	cancel  context.CancelFunc
	drained chan struct{}
}

// New starts a Service: its worker pool and result dispatcher run until
// Close.
func New(cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 512
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheEntries),
		metrics:   newMetrics(),
		queue:     make(chan compiler.Job, cfg.QueueDepth),
		workers:   workers,
		streamSem: make(chan struct{}, workers),
		waiters:   make(map[string]chan compiler.JobResult),
		cancel:    cancel,
		drained:   make(chan struct{}),
	}
	if cfg.Store != nil {
		s.store = cfg.Store
		s.storeQueue = make(chan storeItem, 256)
		s.storeStop = make(chan struct{})
		s.storeDone = make(chan struct{})
		go s.storeWriter()
	}
	pool := &compiler.Batch{Workers: cfg.Workers}
	go s.dispatch(pool.Serve(ctx, s.queue))
	return s
}

// dispatch routes pool results to the per-request waiter channels.
func (s *Service) dispatch(out <-chan compiler.JobResult) {
	for jr := range out {
		s.mu.Lock()
		ch := s.waiters[jr.Job.ID]
		delete(s.waiters, jr.Job.ID)
		s.mu.Unlock()
		if ch != nil {
			ch <- jr // buffered; never blocks
		}
	}
	// The pool is gone. Any waiter left is a job that was sitting in the
	// queue when shutdown cancelled the workers; answer it so its request
	// unblocks with the drain error instead of hanging.
	s.mu.Lock()
	for id, ch := range s.waiters {
		delete(s.waiters, id)
		ch <- compiler.JobResult{Err: context.Canceled}
	}
	s.mu.Unlock()
	close(s.drained)
}

// Compile serves one resolved request. outcome reports how: "hit" (served
// from the in-memory cache), "hit-disk" (revived from the persistent store —
// the restart-warm path), "miss" (this call compiled), or "coalesced"
// (joined another in-flight compile of the same key). Hits and coalesced
// calls return the same Artifact pointer as the compile that produced it, so
// their Body bytes are identical by construction; disk hits serve the exact
// bytes the original cold compile wrote, digest-verified by the store.
func (s *Service) Compile(ctx context.Context, spec *JobSpec) (art *Artifact, outcome string, err error) {
	parent := obs.SpanFromContext(ctx)
	l1 := parent.Child("cache:l1")
	if a, ok := s.cache.Get(spec.Key); ok {
		l1.SetAttr("hit", "true")
		l1.End()
		s.metrics.countOutcome("hit")
		return a, "hit", nil
	}
	l1.SetAttr("hit", "false")
	l1.End()
	servedFromCache := false
	servedFromStore := false
	fl := parent.Child("flight")
	a, shared, err := s.flight.do(ctx, spec.Key, func() (*Artifact, error) {
		// Re-check under the flight: a caller that missed the cache may have
		// raced an identical compile that finished (and left the flight map)
		// between its Get and its do — recompiling a cached artifact would
		// burn a worker slot for nothing. The miss is not re-counted; the
		// top-level Get already recorded this lookup.
		if a, ok := s.cache.get(spec.Key, false); ok {
			servedFromCache = true
			return a, nil
		}
		// Second tier: a verified body on disk beats a recompile. The revived
		// artifact is promoted into the in-memory LRU so the next lookup is a
		// plain hit.
		var probe *obs.Span
		if s.store != nil {
			probe = parent.Child("store:probe")
		}
		if a, ok := s.storeGet(spec.Key); ok {
			probe.SetAttr("hit", "true")
			probe.End()
			servedFromStore = true
			s.cache.Add(spec.Key, a)
			return a, nil
		}
		probe.SetAttr("hit", "false")
		probe.End()
		a, err := s.submit(spec, parent)
		if err != nil {
			return nil, err
		}
		s.cache.Add(spec.Key, a)
		return a, nil
	})
	// servedFromCache/servedFromStore are only written by this call's own fn
	// (never when shared), so reading them here is race-free.
	outcome = "miss"
	switch {
	case shared:
		outcome = "coalesced"
	case servedFromCache:
		outcome = "hit"
	case servedFromStore:
		outcome = "hit-disk"
	}
	if shared {
		fl.SetAttr("role", "follower")
	} else {
		fl.SetAttr("role", "leader")
	}
	fl.SetAttr("outcome", outcome)
	if err != nil {
		fl.SetError(err)
	}
	fl.End()
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.countRejected()
		}
		return nil, outcome, err
	}
	s.metrics.countOutcome(outcome)
	return a, outcome, nil
}

// submit admission-controls one compile into the bounded queue and waits for
// its result. It never blocks on a full queue: overload is shed immediately.
// Once admitted, the compile runs to completion regardless of any individual
// request's context — the work is spent either way, the artifact feeds every
// coalesced follower, and Serve guarantees a result for every admitted job
// (even pool shutdown delivers a cancellation error), so the wait is bounded
// by the compile itself. A leader whose client disconnects therefore still
// populates the cache instead of poisoning its followers with its own
// context error.
func (s *Service) submit(spec *JobSpec, parent *obs.Span) (*Artifact, error) {
	if s.closing.Load() {
		return nil, ErrDraining
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.closing.Load() { // re-check: Close may have raced the Add
		return nil, ErrDraining
	}
	id := fmt.Sprintf("req-%d", s.nextID.Add(1))
	ch := make(chan compiler.JobResult, 1)
	s.mu.Lock()
	s.waiters[id] = ch
	s.mu.Unlock()
	job := compiler.Job{ID: id, Input: spec.Input, Graph: spec.Graph, Opts: spec.Opts, FrontKey: spec.InputDigest, Span: parent}
	if parent != nil {
		job.Queued = time.Now()
	}
	select {
	case s.queue <- job:
	default:
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	jr := <-ch
	if jr.Err != nil {
		// The pool cancels compiles only at shutdown; surface that as the
		// drain, not as a defect of the request.
		if errors.Is(jr.Err, context.Canceled) {
			return nil, ErrDraining
		}
		return nil, &CompileError{Err: jr.Err}
	}
	s.metrics.compileHist.observe(jr.Elapsed.Seconds())
	a, err := buildArtifact(spec, jr)
	if err != nil {
		return nil, err
	}
	s.metrics.observePasses(a)
	// Enqueue the persistent write while still inside the inflight window:
	// Close waits for inflight before sweeping the write-behind queue, so
	// every successfully compiled artifact is on disk when a graceful drain
	// returns.
	s.storePut(a, parent)
	return a, nil
}

// storeGet probes the persistent tier and revives its pre-marshaled body
// into a servable Artifact. The body is the JSON the original compile wrote,
// so unmarshaling it reconstructs every artifact field and serving it stays
// byte-identical to the cold compile.
func (s *Service) storeGet(key string) (*Artifact, bool) {
	if s.store == nil {
		return nil, false
	}
	body, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	a := new(Artifact)
	if err := json.Unmarshal(body, a); err != nil {
		// Digest-verified bytes that fail to decode mean a schema break, not
		// corruption; treat as a miss and let the recompile overwrite.
		s.metrics.countStoreDecodeError()
		s.cfg.Logger.Warn("store body failed to decode, recompiling", "key", key, "err", err.Error())
		return nil, false
	}
	a.Body = body
	return a, true
}

// storeItem is one write-behind unit: the artifact plus the originating
// request's store:flush span (nil when tracing is off). The span was opened
// at enqueue time, so its duration is queue wait + disk write — the full
// write-behind latency — and it lands in the already-published trace.
type storeItem struct {
	a    *Artifact
	span *obs.Span
}

// storePut hands a fresh artifact to the write-behind writer. A full queue
// falls back to writing in the request path: disk backpressure on one cold
// compile beats silently losing warm-restart data.
func (s *Service) storePut(a *Artifact, parent *obs.Span) {
	if s.store == nil {
		return
	}
	flush := parent.Child("store:flush")
	select {
	case s.storeQueue <- storeItem{a, flush}:
	default:
		flush.SetAttr("inline", "true")
		s.writeThrough(storeItem{a, flush})
	}
}

// storeWriter is the single write-behind goroutine: it lands cold compiles
// on disk off the request path until told to stop, then sweeps the queue dry
// so a graceful drain hands every dirty entry to the store.
func (s *Service) storeWriter() {
	defer close(s.storeDone)
	for {
		select {
		case it := <-s.storeQueue:
			s.writeThrough(it)
		case <-s.storeStop:
			for {
				select {
				case it := <-s.storeQueue:
					s.writeThrough(it)
				default:
					return
				}
			}
		}
	}
}

func (s *Service) writeThrough(it storeItem) {
	if err := s.store.Put(it.a.Key, it.a.Body); err != nil && !errors.Is(err, store.ErrClosed) {
		s.metrics.countStoreWriteError()
		s.cfg.Logger.Warn("store write-behind put failed", "key", it.a.Key, "err", err.Error())
		it.span.SetError(err)
	}
	it.span.End()
}

// buildArtifact freezes one compile result into its cacheable wire form.
func buildArtifact(spec *JobSpec, jr compiler.JobResult) (*Artifact, error) {
	src, err := qasm.Emit(jr.Result.Physical)
	if err != nil {
		return nil, &CompileError{Err: err}
	}
	stats := jr.Result.Physical.CollectStats()
	a := &Artifact{
		Key:           spec.Key,
		Device:        spec.Graph.Name(),
		Pipeline:      spec.Opts.Pipeline.String(),
		QASM:          src,
		TwoQubitGates: stats.TwoQubit,
		Swaps:         jr.Result.SwapsAdded,
		Depth:         jr.Result.Physical.Depth(),
		TotalGates:    stats.Total,
		InitialLayout: jr.Result.Initial,
		FinalLayout:   jr.Result.Final,
		Passes:        jr.Result.Passes,
		CompileNanos:  jr.Elapsed.Nanoseconds(),
	}
	if spec.Opts.Calibration != nil {
		success, makespan := jr.Result.EstimatedSuccess, jr.Result.Makespan
		a.Calibration = spec.Opts.Calibration.Name
		a.CostModel = jr.Result.CostModel
		a.EstimatedSuccess = &success
		a.MakespanUs = &makespan
	}
	body, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	a.Body = body
	return a, nil
}

// BeginDrain marks the service draining before the HTTP listener closes:
// /healthz flips to 503 "draining" (so load balancers stop routing) and new
// compiles are refused with ErrDraining, while already-cached artifacts keep
// serving. Call it first on shutdown, then stop the listener, then Close.
func (s *Service) BeginDrain() { s.closing.Store(true) }

// Draining reports whether the service has stopped admitting work.
func (s *Service) Draining() bool { return s.closing.Load() }

// QueueStats returns the admission queue's current depth and capacity.
func (s *Service) QueueStats() (length, capacity int) {
	return len(s.queue), cap(s.queue)
}

// Close drains the service: new work is refused with ErrDraining, in-flight
// compilations finish (until ctx expires, at which point they are cancelled
// at their next pass boundary), the worker pool shuts down, and — when a
// persistent store is attached — the write-behind queue is swept dry so
// every compiled-but-unwritten artifact lands on disk before Close returns
// (the graceful SIGTERM handoff). Close returns ctx.Err() if the drain
// deadline cut compilations short.
func (s *Service) Close(ctx context.Context) error {
	var err error
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		s.cancel() // stop the pool; aborts any still-running compiles
		<-s.drained
		if s.store != nil {
			close(s.storeStop)
			<-s.storeDone
		}
	})
	return err
}
