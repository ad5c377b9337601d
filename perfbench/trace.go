package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/device"
	"trios/internal/qasm"
	"trios/internal/service"
	"trios/internal/topo"
)

// The traced run times each layer from outside, through its public
// functions, on the same seed's inputs as the untraced run. Spans are kept
// in memory and written when the run ends; a layer's self time is its span
// minus the spans of its children.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    int    `json:"req"`
}

// recorder holds the spans of one goroutine; workers record into their
// own and are merged afterwards, so no worker ever waits on another's
// bookkeeping mid-request.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(name string, start, end time.Time, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, parent, req int) int {
	return r.add(name, time.Now(), time.Time{}, parent, req)
}

func (r *recorder) end(i int) { r.spans[i].End = int64(time.Since(r.t0)) }

// merge appends o's spans, re-pointing their parents.
func (r *recorder) merge(o *recorder) {
	base := len(r.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns every span's duration minus its children's.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layers collects per-layer samples from the recorder: self time of every
// span by name.
func (r *recorder) layers() map[string][]float64 {
	self := r.selfTimes()
	out := map[string][]float64{}
	for i, s := range r.spans {
		out[s.Name] = append(out[s.Name], ms(self[i]))
	}
	return out
}

// gaps returns, for every root span named root, the share of its wall time
// that the self times of its descendant layers leave unattributed.
func (r *recorder) gaps(root string) []float64 {
	self := r.selfTimes()
	covered := map[int]time.Duration{}
	for i := range r.spans {
		top := i
		for r.spans[top].Parent >= 0 {
			top = r.spans[top].Parent
		}
		if top != i {
			covered[top] += self[i]
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name == root && s.Parent < 0 {
			out = append(out, math.Abs(1-float64(covered[i])/float64(s.dur())))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// passLayer names a compiler pass as a layer.
func passLayer(pass string) string {
	switch {
	case strings.HasPrefix(pass, "decompose:toffoli-all"), pass == "decompose:keep-toffoli", pass == "decompose:keep-multiqubit":
		return "decompose.front"
	case strings.HasPrefix(pass, "decompose:mapping-aware"):
		return "decompose.mapping_aware"
	case pass == "lower:basis":
		return "decompose.lower"
	case pass == "route:main":
		return "route.main"
	case pass == "route:fixup":
		return "route.fixup"
	case pass == "layout:place":
		return "layout.place"
	case pass == "optimize:saturate-input":
		return "rewrite.saturate_input"
	case pass == "optimize:saturate-routed":
		return "rewrite.saturate_routed"
	case pass == "optimize:saturate-output":
		return "rewrite.saturate_output"
	case pass == "stats:fidelity":
		return "noise.fidelity"
	case pass == "stats":
		return "compiler.stats"
	}
	return "pass." + strings.NewReplacer(":", "_", "-", "_").Replace(pass)
}

// reportedPasses are the pass layers whose time and allocation the traced
// run reports as metrics.
var reportedPasses = []string{
	"decompose.front", "route.main", "decompose.mapping_aware", "rewrite.saturate_input",
	"rewrite.saturate_routed", "decompose.lower", "rewrite.saturate_output", "noise.fidelity",
}

// streamStageOf maps a compiler.StreamCompile stage to the stage it reports
// under.
func streamStageOf(pass string) string {
	switch {
	case pass == "read:qasm":
		return "read"
	case pass == "decompose:front", pass == "layout:place":
		return "decompose"
	case pass == "route:main":
		return "route"
	case pass == "decompose:mapping-aware", pass == "route:fixup":
		return "mapping_aware"
	case pass == "lower:basis", strings.HasPrefix(pass, "optimize:"):
		return "lower"
	case strings.HasPrefix(pass, "schedule"):
		return "emit"
	}
	return "other"
}

var streamStages = []string{"read", "decompose", "route", "mapping_aware", "lower", "emit"}

// traceInputs is what a workload's traced run replays.
type traceInputs struct {
	miss   []compileReq    // compiled on first sight (service path, then pass by pass)
	hit    []int           // indices into miss replayed as cache hits
	timed  string          // "miss" or "hit": the phase that is the workload's timed set
	stream []streamProgram // programs for the stream layers
}

func workloadTraceInputs(cfg *config) (*traceInputs, string, string, error) {
	b, _, err := cfg.inputs()
	if err != nil {
		return nil, "", "", err
	}
	firstStream := func(seed int64) ([]streamProgram, error) { return b.streamPrograms(seed, 1, streamGates) }
	in := &traceInputs{}
	var digest, alt string
	switch cfg.workload {
	case "serve-cold":
		reps := max(1, cfg.seconds*coldPerSecond/176)
		if in.miss, err = b.coldRequests(cfg.seed, reps); err != nil {
			return nil, "", "", err
		}
		altReqs, err := b.coldRequests(cfg.seed+1, reps)
		if err != nil {
			return nil, "", "", err
		}
		digest, alt = digestReqs(in.miss), digestReqs(altReqs)
		// Replay the most recent requests, which the daemon's default
		// 512-entry cache still holds, to time lookups on hits.
		for i := max(0, len(in.miss)-256); i < len(in.miss); i++ {
			in.hit = append(in.hit, i)
		}
		in.timed = "miss"
		in.stream, err = firstStream(cfg.seed)
	case "serve-warm":
		if in.miss, err = b.gridCells(cfg.seed); err != nil {
			return nil, "", "", err
		}
		altCells, err := b.gridCells(cfg.seed + 1)
		if err != nil {
			return nil, "", "", err
		}
		digest, alt = digestReqs(in.miss), digestReqs(altCells)
		in.hit = warmOrder(cfg.seed, len(in.miss), max(1, cfg.seconds*warmPerSecond/len(in.miss)))
		in.timed = "hit"
		in.stream, err = firstStream(cfg.seed)
	default:
		if in.miss, err = warmupRequests(); err != nil {
			return nil, "", "", err
		}
		in.hit = []int{0, 1, 2, 3}
		in.timed = "miss"
		n := max(2, cfg.seconds*streamsPerSecond)
		if in.stream, err = b.streamPrograms(cfg.seed, n, streamGates); err != nil {
			return nil, "", "", err
		}
		altProgs, err := b.streamPrograms(cfg.seed+1, n, streamGates)
		if err != nil {
			return nil, "", "", err
		}
		digest, alt = digestStreams(in.stream), digestStreams(altProgs)
	}
	return in, digest, alt, err
}

// served is what the service path returned for one request.
type served struct {
	digest     [32]byte // of the artifact's QASM
	cx         int
	logSuccess float64
}

// tracedService drives reqs in order through service.Resolve and
// Service.Compile in-process with conns workers, recording spans. When out
// is non-nil, out[i] records what the service returned for reqs[i].
func tracedService(svc *service.Service, rec *recorder, reqs []compileReq, order []int, conns, reqBase int,
	fail *failures, out []served) (hits, lookups int, wall time.Duration) {
	var next atomic.Int64
	var nHits atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	workers := make([]*recorder, conns)
	for c := range workers {
		// Room for every span up front: growing the slice would be
		// unattributed time inside a request.
		rec := &recorder{t0: rec.t0, spans: make([]span, 0, 6*(len(order)/conns+1))}
		workers[c] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				id := reqBase + k
				root := rec.begin("request", -1, id)
				sp := rec.begin("service.decode", root, id)
				var wire service.CompileRequest
				err := json.Unmarshal(reqs[i].Body, &wire)
				rec.end(sp)
				if err != nil {
					fail.add("request %d: decode: %v", i, err)
					rec.end(root)
					continue
				}
				sp = rec.begin("service.resolve", root, id)
				spec, err := service.Resolve(wire)
				rec.end(sp)
				if err != nil {
					fail.add("request %d: resolve: %v", i, err)
					rec.end(root)
					continue
				}
				t0 := time.Now()
				art, outcome, err := svc.Compile(context.Background(), spec)
				t1 := time.Now()
				if err != nil {
					fail.add("request %d (%s on %s): compile: %v", i, reqs[i].Bench, reqs[i].Topology, err)
					rec.end(root)
					continue
				}
				if outcome == "hit" {
					nHits.Add(1)
					rec.add("service.lookup", t0, t1, root, id)
				} else {
					sp = rec.add("service.compile", t0, t1, root, id)
					split := t1.Add(-time.Duration(art.CompileNanos))
					if split.Before(t0) {
						split = t0
					}
					rec.add("service.queue_wait", t0, split, sp, id)
					rec.add("compiler.compile", split, t1, sp, id)
				}
				rec.end(root)
				if out != nil {
					l, _ := logSuccess(&artifact{EstimatedSuccess: art.EstimatedSuccess})
					out[i] = served{digest: sha256.Sum256([]byte(art.QASM)), cx: art.TwoQubitGates, logSuccess: l}
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	for _, w := range workers {
		rec.merge(w)
	}
	return int(nHits.Load()), len(order), wall
}

// passRun is one pass-by-pass compile's accounting.
type passRun struct {
	out     string
	swaps   int
	removed int
}

// runPasses compiles req pass by pass through compiler.PipelinePasses on a
// compiler.PassContext — the steps compiler.Compile takes — recording a
// span per pass and, when alloc is non-nil, each pass's heap allocation.
func runPasses(rec *recorder, req compileReq, id int, alloc map[string]*allocStat) (*passRun, error) {
	var wire service.CompileRequest
	if err := json.Unmarshal(req.Body, &wire); err != nil {
		return nil, err
	}
	spec, err := service.Resolve(wire)
	if err != nil {
		return nil, err
	}
	passes, err := compiler.PipelinePasses(spec.Opts)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	if alloc != nil {
		runtime.GC()
		runtime.GC()
	}
	root := -1
	if rec != nil {
		root = rec.begin("compile", -1, id)
	}
	timed := func(name string, fn func() error) error {
		if alloc != nil {
			runtime.ReadMemStats(&ms0)
		}
		sp := -1
		if rec != nil {
			sp = rec.begin(name, root, id)
		}
		err := fn()
		if rec != nil {
			rec.end(sp)
		}
		if alloc != nil {
			runtime.ReadMemStats(&ms1)
			a := alloc[name]
			if a == nil {
				a = &allocStat{}
				alloc[name] = a
			}
			a.n++
			a.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			a.mallocs += ms1.Mallocs - ms0.Mallocs
		}
		return err
	}
	var c *circuit.Circuit
	if err := timed("qasm.parse", func() error {
		var err error
		if c, err = qasm.Parse(req.QASM); err != nil {
			return err
		}
		return c.Validate()
	}); err != nil {
		return nil, err
	}
	pc := &compiler.PassContext{Graph: spec.Graph, Opts: spec.Opts, Circuit: c}
	run := &passRun{}
	for _, p := range passes {
		layer := passLayer(p.Name())
		before := len(pc.Circuit.Gates)
		if err := timed(layer, func() error { return p.Run(pc, pc.Circuit) }); err != nil {
			return nil, fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		if strings.HasPrefix(layer, "rewrite.") {
			run.removed += before - len(pc.Circuit.Gates)
		}
	}
	if err := timed("qasm.emit", func() error {
		var err error
		run.out, err = qasm.Emit(pc.Circuit)
		return err
	}); err != nil {
		return nil, err
	}
	if rec != nil {
		rec.end(root)
	}
	run.swaps = pc.SwapsAdded
	return run, nil
}

type allocStat struct {
	n       int
	bytes   uint64
	mallocs uint64
}

// streamLayers runs the stream programs through compiler.StreamCompile and
// the QASM reader and emitter alone.
type streamLayers struct {
	busy       map[string]time.Duration
	wall       time.Duration
	windows    int
	swaps      int
	cx         int
	logSuccess []float64
	readGates  int
	readTime   time.Duration
	emitGates  int
	emitTime   time.Duration
}

func tracedStreams(rec *recorder, progs []streamProgram, g *topo.Graph, cal *device.Calibration, fail *failures) (*streamLayers, error) {
	sl := &streamLayers{busy: map[string]time.Duration{}}
	for k, p := range progs {
		sopts, err := streamOptions(p, 0)
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		sp := rec.begin("stream", -1, k)
		t0 := time.Now()
		res, err := compiler.StreamCompile(context.Background(), bytes.NewReader(p.QASM), &out, g, sopts)
		wall := time.Since(t0)
		rec.end(sp)
		if err != nil {
			fail.add("stream %d: %v", k, err)
			continue
		}
		sl.wall += wall
		for _, m := range res.Passes {
			sl.busy[streamStageOf(m.Pass)] += m.Duration
		}
		sl.windows += res.Windows
		sl.swaps += res.SwapsAdded
		prog, err := qasm.Parse(out.String())
		if err != nil {
			fail.add("stream %d: output: %v", k, err)
			continue
		}
		o, err := checkStreamProgram(prog, g, cal)
		if err != nil {
			fail.add("stream %d: %v", k, err)
			continue
		}
		sl.cx += o.cx
		sl.logSuccess = append(sl.logSuccess, o.logSuccess...)

		r := qasm.NewReader(bytes.NewReader(p.QASM))
		sp = rec.begin("qasm.read", -1, k)
		t0 = time.Now()
		n := 0
		for {
			if _, err = r.NextGate(); err != nil {
				break
			}
			n++
		}
		sl.readTime += time.Since(t0)
		rec.end(sp)
		if err != io.EOF {
			fail.add("stream %d: qasm.Reader: %v", k, err)
		}
		sl.readGates += n

		sp = rec.begin("qasm.emitter", -1, k)
		t0 = time.Now()
		e, err := qasm.NewEmitter(io.Discard, prog.NumQubits, false)
		if err == nil {
			for _, gt := range prog.Gates {
				if err = e.EmitGate(gt); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = e.Flush()
		}
		sl.emitTime += time.Since(t0)
		rec.end(sp)
		if err != nil {
			fail.add("stream %d: qasm.Emitter: %v", k, err)
		}
		sl.emitGates += len(prog.Gates)
	}
	return sl, nil
}

// oracleBuildMs times Graph.EnsureOracle on fresh graphs of the paper
// topologies.
func oracleBuildMs() ([]float64, error) {
	var out []float64
	for rep := 0; rep < 5; rep++ {
		for _, n := range paperTopologies {
			g, err := topo.ByName(n)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			g.EnsureOracle()
			out = append(out, ms(time.Since(t0)))
		}
	}
	return out, nil
}

// traced is the --trace 1 run.
func traced(cfg *config) (*runOutput, error) {
	in, digest, alt, err := workloadTraceInputs(cfg)
	if err != nil {
		return nil, err
	}
	fail := &failures{}
	rec := &recorder{t0: time.Now(), spans: make([]span, 0, 24*len(in.miss)+6*len(in.hit)+3*len(in.stream)+64)}
	attempted := 0

	// Service path, at the timed concurrency: first sight of every request,
	// then the replays that hit the cache.
	svc := service.New(service.Config{Workers: cfg.procs})
	defer svc.Close(context.Background()) // for early returns; Close is idempotent
	warm, err := warmupRequests()
	if err != nil {
		return nil, err
	}
	if cfg.workload != "stream" {
		for _, w := range warm {
			var wire service.CompileRequest
			if err := json.Unmarshal(w.Body, &wire); err != nil {
				return nil, err
			}
			spec, err := service.Resolve(wire)
			if err != nil {
				return nil, err
			}
			if _, _, err := svc.Compile(context.Background(), spec); err != nil {
				return nil, err
			}
		}
	}
	missOrder := make([]int, len(in.miss))
	for i := range missOrder {
		missOrder[i] = i
	}
	first := make([]served, len(in.miss))
	missHits, missLookups, missWall := tracedService(svc, rec, in.miss, missOrder, cfg.procs, 0, fail, first)
	hitHits, hitLookups, hitWall := tracedService(svc, rec, in.miss, in.hit, cfg.procs, len(in.miss), fail, nil)
	attempted += missLookups + hitLookups
	closeCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = svc.Close(closeCtx)
	cancel()
	if err != nil {
		return nil, err
	}
	hitRatio, timedWall := float64(missHits)/float64(missLookups), missWall
	if in.timed == "hit" {
		hitRatio, timedWall = float64(hitHits)/float64(hitLookups), hitWall
	}

	// Pass by pass, serially: every first-sight input for time, one pass over
	// the distinct configurations for allocation.
	var swaps, removed int
	base := len(in.miss) + len(in.hit)
	for i, req := range in.miss {
		attempted++
		run, err := runPasses(rec, req, base+i, nil)
		if err != nil {
			fail.add("pass-by-pass %d (%s on %s): %v", i, req.Bench, req.Topology, err)
			continue
		}
		if sha256.Sum256([]byte(run.out)) != first[i].digest {
			fail.add("pass-by-pass %d (%s on %s): output differs from the served artifact", i, req.Bench, req.Topology)
		}
		swaps += run.swaps
		removed += run.removed
	}
	alloc := map[string]*allocStat{}
	allocInputs := in.miss[:min(len(in.miss), 176)]
	for i, req := range allocInputs {
		if _, err := runPasses(nil, req, i, alloc); err != nil {
			fail.add("allocation pass %d: %v", i, err)
		}
	}

	// Stream layers.
	g, err := topo.ByName(streamTopology)
	if err != nil {
		return nil, err
	}
	cal, err := device.ForDevice(streamTopology)
	if err != nil {
		return nil, err
	}
	attempted += len(in.stream)
	sl, err := tracedStreams(rec, in.stream, g, cal, fail)
	if err != nil {
		return nil, err
	}
	if cfg.workload == "stream" {
		timedWall = sl.wall
	}
	oracle, err := oracleBuildMs()
	if err != nil {
		return nil, err
	}

	layers := rec.layers()
	// Reconciliation: a request's layer self times must cover its wall
	// time to within 10%. A client goroutine the scheduler parks between
	// two spans leaves that wait unattributed, so the gate is on the 99th
	// percentile and the worst request is reported beside it.
	reqGaps, compileGaps := rec.gaps("request"), rec.gaps("compile")
	reqGapP99 := quantile(reqGaps, 0.99)
	if cfg.workload == "serve-cold" && reqGapP99 > 0.10 {
		fail.add("layer self times leave %.1f%% of the 99th-percentile request's wall time unattributed (limit 10%%)", 100*reqGapP99)
	}
	m := map[string]metric{
		"service.decode_ms_p50":          {median(layers["service.decode"]), "ms"},
		"service.resolve_ms_p50":         {median(layers["service.resolve"]), "ms"},
		"qasm.parse_ms_p50":              {median(layers["qasm.parse"]), "ms"},
		"service.lookup_ms_p50":          {median(layers["service.lookup"]), "ms"},
		"service.cache_hit_ratio":        {hitRatio, "ratio"},
		"service.queue_wait_ms_p99":      {quantile(layers["service.queue_wait"], 0.99), "ms"},
		"compiler.compile_ms_p50":        {median(layers["compiler.compile"]), "ms"},
		"qasm.emit_ms_p50":               {median(layers["qasm.emit"]), "ms"},
		"route.swaps":                    {float64(swaps), "count"},
		"rewrite.gates_removed":          {float64(removed), "count"},
		"stream.windows":                 {float64(sl.windows), "count"},
		"stream.swaps":                   {float64(sl.swaps), "count"},
		"qasm.read_gates_per_s":          {float64(sl.readGates) / sl.readTime.Seconds(), "1/s"},
		"qasm.emit_gates_per_s":          {float64(sl.emitGates) / sl.emitTime.Seconds(), "1/s"},
		"topo.oracle_build_ms":           {median(oracle), "ms"},
		"trace.request_gap_p99":          {reqGapP99, "ratio"},
		"trace.request_gap_max":          {slices.Max(reqGaps), "ratio"},
		"trace.compile_gap_p99":          {quantile(compileGaps, 0.99), "ratio"},
		"trace.timed_wall_s":             {timedWall.Seconds(), "s"},
		"compiler.mallocs_per_compile":   {0, "count"},
		"compiler.alloc_kib_per_compile": {0, "KiB"},
	}
	var compileBytes, compileMallocs uint64
	for _, name := range reportedPasses {
		m[name+"_ms_p50"] = metric{median(layers[name]), "ms"}
		kib := 0.0
		if a := alloc[name]; a != nil {
			kib = float64(a.bytes) / 1024 / float64(a.n)
		}
		m[name+"_alloc_kib"] = metric{kib, "KiB"}
	}
	for name, a := range alloc {
		if name != "qasm.parse" && name != "qasm.emit" {
			compileBytes += a.bytes
			compileMallocs += a.mallocs
		}
	}
	if n := len(allocInputs); n > 0 {
		m["compiler.mallocs_per_compile"] = metric{float64(compileMallocs) / float64(n), "count"}
		m["compiler.alloc_kib_per_compile"] = metric{float64(compileBytes) / 1024 / float64(n), "KiB"}
	}
	for _, st := range streamStages {
		m["stream."+st+"_busy_s"] = metric{sl.busy[st].Seconds(), "s"}
		m["stream."+st+"_occupancy"] = metric{sl.busy[st].Seconds() / sl.wall.Seconds(), "ratio"}
	}

	exact := map[string]float64{
		"route.swaps":                  float64(swaps),
		"rewrite.gates_removed":        float64(removed),
		"compiler.mallocs_per_compile": m["compiler.mallocs_per_compile"].Value,
	}
	if cfg.workload == "stream" {
		exact["cx_total"], exact["success_geomean"] = float64(sl.cx), geomean(sl.logSuccess)
	} else {
		order := missOrder
		if in.timed == "hit" {
			order = in.hit
		}
		cx, logs := 0, make([]float64, 0, len(order))
		for _, i := range order {
			cx += first[i].cx
			logs = append(logs, first[i].logSuccess)
		}
		exact["cx_total"], exact["success_geomean"] = float64(cx), geomean(logs)
	}

	extra := map[string]float64{"traced_wall_s": timedWall.Seconds(), "requests_reconciled": float64(len(reqGaps)), "compiles_reconciled": float64(len(compileGaps))}
	if b, err := os.ReadFile(filepath.Join(cfg.out, "records", fmt.Sprintf("%s-seed%d-tracefalse.json", cfg.workload, cfg.seed))); err == nil {
		var un record
		if json.Unmarshal(b, &un) == nil && un.Seconds == cfg.seconds {
			extra["untraced_wall_s"] = un.Extra["timed_wall_s"]
		}
	}
	if err := rec.write(filepath.Join(cfg.out, "traces", cfg.workload+".jsonl.gz")); err != nil {
		return nil, err
	}
	samples := map[string]int{}
	for n, v := range layers {
		samples[n] = len(v)
	}
	return &runOutput{
		metrics: m, attempted: attempted, fail: fail, samples: samples, extra: extra,
		exact: exact, digest: digest, altDigest: alt,
	}, nil
}
