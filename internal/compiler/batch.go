package compiler

import (
	"context"
	"runtime"
	"sync"
	"time"

	"trios/internal/circuit"
	"trios/internal/decompose"
	"trios/internal/obs"
	"trios/internal/topo"
)

// Job is one compilation in a batch: an input circuit, a target device, and
// a pipeline configuration. The experiment suites fan (benchmark x device x
// pipeline x seed) grids out as job lists.
type Job struct {
	// ID labels the job in results and error messages (optional).
	ID string
	// Input must not be mutated while the batch runs; jobs may share it, and
	// sharing is what activates the front-pass deduplication cache.
	Input *circuit.Circuit
	Graph *topo.Graph
	Opts  Options
	// FrontKey, when non-empty, is a content identity for Input (e.g. a hash
	// of its canonical serialization): jobs carrying equal FrontKeys are
	// asserted to have identical Input circuits and share front-cache
	// entries even when their Input pointers differ. Long-lived callers like
	// the serving layer need this — every HTTP request parses a fresh
	// pointer, so pointer-keyed memoization could never hit across requests.
	FrontKey string
	// Span, when non-nil, is the request span the worker records the job
	// under: queue:wait from Queued, the instant the job was queued, to its
	// pickup, then the compile span. Both are unset when untraced.
	Span   *obs.Span
	Queued time.Time
}

// JobResult pairs a job with its outcome. Exactly one of Result and Err is
// non-nil for jobs that were reached; jobs skipped by cancellation carry the
// context's error.
type JobResult struct {
	Job     Job
	Index   int
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// Batch is a parallel compilation engine: a fixed worker pool that drains a
// job list, deduplicating the device-independent front passes (input
// optimization + first decomposition) across jobs that share an input
// circuit and pipeline configuration. The zero value is ready to use.
type Batch struct {
	// Workers caps concurrent compilations; <= 0 means GOMAXPROCS.
	Workers int
}

func (b *Batch) workers(jobs int) int {
	w := b.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Stream launches the worker pool over jobs and returns a channel delivering
// results in completion order. The channel closes once every reached job has
// been delivered; cancelling ctx stops the feed, so unreached jobs simply
// never appear. Use Run for ordered collection.
func (b *Batch) Stream(ctx context.Context, jobs []Job) <-chan JobResult {
	out := make(chan JobResult)
	idx := make(chan int)
	cache := newFrontCache()
	go func() {
		defer close(idx)
		for i := range jobs {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < b.workers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				jr := JobResult{Job: jobs[i], Index: i}
				if err := ctx.Err(); err != nil {
					jr.Err = err
				} else {
					runJob(ctx, cache, &jr)
				}
				select {
				case out <- jr:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Serve runs a persistent worker pool over an open-ended job feed: workers
// drain the in channel until it is closed or ctx is cancelled, delivering
// results in completion order on the returned channel (which closes once the
// pool exits). Unlike Stream, Serve has no job list — it is the execution
// engine for long-lived callers like the triosd service, which correlate
// results to requests by Job.ID (JobResult.Index is -1). The pool shares one
// bounded front-pass cache across its lifetime, and cancelling ctx aborts
// in-flight compilations at their next pass boundary. Every job a worker
// picks up produces exactly one JobResult, cancellation included — the
// caller must keep draining the returned channel until it closes, and in
// exchange no waiter is ever left without an answer.
func (b *Batch) Serve(ctx context.Context, in <-chan Job) <-chan JobResult {
	out := make(chan JobResult)
	cache := newFrontCache()
	cache.max = 256
	w := b.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var j Job
				var ok bool
				select {
				case <-ctx.Done():
					return
				case j, ok = <-in:
					if !ok {
						return
					}
				}
				jr := JobResult{Job: j, Index: -1}
				runJob(ctx, cache, &jr)
				out <- jr
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Run compiles every job and returns the results in job order. Jobs that
// fail carry their error in JobResult.Err; Run itself errors only when ctx
// is cancelled before the batch drains, in which case unreached jobs carry
// the context's error. The result set is deterministic in the worker count:
// every job's output depends only on its own Options.
func (b *Batch) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	for i := range results {
		results[i] = JobResult{Job: jobs[i], Index: i}
	}
	for jr := range b.Stream(ctx, jobs) {
		results[jr.Index] = jr
	}
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Result == nil && results[i].Err == nil {
				results[i].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

// runJob compiles jr.Job for the pool worker that just picked it up and
// fills jr's Result, Err and Elapsed. Under a request span, queue:wait ends
// at pickup and the compile span shares Elapsed's two instants.
func runJob(ctx context.Context, cache *frontCache, jr *JobResult) {
	j := jr.Job
	start := time.Now()
	j.Span.ChildAt("queue:wait", j.Queued).EndAt(start)
	cs := j.Span.ChildAt("compile", start)
	jr.Result, jr.Err = compileFrom(ctx, cs, cache, j)
	jr.Elapsed = time.Since(start)
	cs.SetError(jr.Err)
	cs.EndAt(start.Add(jr.Elapsed))
}

// frontKey identifies a front-pass computation: its output depends only on
// the input circuit identity, the pipeline kind, the (normalized) Toffoli
// mode, and the Optimize flag. Identity is the Job's content FrontKey when
// it has one, else the input pointer.
type frontKey struct {
	input    *circuit.Circuit // nil when content keys the entry
	content  string
	pipeline Pipeline
	mode     decompose.ToffoliMode
	optimize bool
}

// frontMode normalizes Options.Mode to the value that actually shapes the
// front passes, so jobs whose fronts are identical share one cache entry:
// the Trios front ignores the mode entirely, and the Conventional front
// treats Auto as Six.
func frontMode(opts Options) decompose.ToffoliMode {
	switch opts.Pipeline {
	case Conventional:
		if opts.Mode == decompose.Auto {
			return decompose.Six
		}
		return opts.Mode
	case TriosPipeline:
		switch opts.Mode {
		case decompose.Auto, decompose.Six, decompose.Eight:
			return decompose.Auto
		}
		// Invalid modes keep their own entry so their error does not poison
		// valid jobs sharing the input.
		return opts.Mode
	default:
		return decompose.Auto
	}
}

// frontCache memoizes prepareFront outputs per frontKey. Entries are filled
// once; concurrent jobs needing the same front block on the filling job
// instead of recomputing.
type frontCache struct {
	mu sync.Mutex
	// max, when > 0, bounds the map: inserting past it resets the map.
	// Dropped entries are only memoization — callers already holding one
	// keep their *frontEntry and complete normally. Finite job lists
	// (Run/Stream) leave max at 0; the long-lived Serve pool must bound the
	// cache because its keys include *circuit.Circuit pointer identity,
	// which never repeats across independently-parsed requests, so entries
	// would otherwise accumulate for the life of the daemon.
	max int
	m   map[frontKey]*frontEntry
}

type frontEntry struct {
	once    sync.Once
	c       *circuit.Circuit
	metrics []PassMetric
	err     error
}

func newFrontCache() *frontCache {
	return &frontCache{m: make(map[frontKey]*frontEntry)}
}

// get returns the front output for (input, opts), memoized per frontKey
// unless fc is nil, and its pass metrics in a slice the caller may append
// to. A call that computes the output records the front passes' spans
// under span. A call that reuses an entry another job computed gets the
// metrics marked Cached, so per-pass aggregation attributes each front
// computation exactly once, and their spans have no width: the passes did
// not run for this job. A non-empty contentKey replaces pointer identity
// (see Job.FrontKey).
func (fc *frontCache) get(input *circuit.Circuit, contentKey string, opts Options, span *obs.Span) (*circuit.Circuit, []PassMetric, error) {
	if fc == nil {
		return prepareFront(input, opts, span)
	}
	key := frontKey{input: input, pipeline: opts.Pipeline, mode: frontMode(opts), optimize: opts.Optimize}
	if contentKey != "" {
		key.input, key.content = nil, contentKey
	}
	fc.mu.Lock()
	e := fc.m[key]
	if e == nil {
		if fc.max > 0 && len(fc.m) >= fc.max {
			fc.m = make(map[frontKey]*frontEntry)
		}
		e = &frontEntry{}
		fc.m[key] = e
	}
	fc.mu.Unlock()
	filled := false
	e.once.Do(func() {
		e.c, e.metrics, e.err = prepareFront(input, opts, span)
		filled = true
	})
	if filled || e.err != nil {
		return e.c, e.metrics[:len(e.metrics):len(e.metrics)], e.err
	}
	var now time.Time
	if span != nil {
		now = time.Now()
	}
	marked := make([]PassMetric, len(e.metrics))
	for i, m := range e.metrics {
		m.Cached = true
		marked[i] = m
		recordPass(span, m, now, now)
	}
	return e.c, marked, nil
}
