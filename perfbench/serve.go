package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trios/internal/circuit"
)

// Sizing of the serve workloads. A run's request set is fixed by the seed
// and --seconds alone, never by how fast the daemon answers, so the exact
// metrics (cx_total, success_geomean) repeat for a seed.
const (
	setups         = 7    // daemon set-ups per run; setup_s is their median
	coldPerSecond  = 880  // serve-cold requests per --seconds (5 x 176 configs)
	warmPerSecond  = 4488 // serve-warm requests per --seconds (51 passes over 88 cells)
	batchesPerRun  = 10   // responses are checked between batches, off the clock
	simSamples     = 2    // responses checked equivalent to their input by simulation
	simCheckTrials = 1
)

// timedRequests drives order through the daemon with conns closed-loop
// clients, in batches of per requests. Each client sends its next request
// only after the previous response's last byte arrived. handle runs on the
// client goroutine for every response; check runs between batches with the
// clock stopped. It returns per-request latencies and each batch's wall.
func timedRequests(d *daemon, conns, per int, order []int, body func(i int) []byte,
	handle func(i, status int, cache string, resp []byte),
	check func(lo, hi int)) ([]time.Duration, []time.Duration) {
	lat := make([]time.Duration, len(order))
	var walls []time.Duration
	for lo := 0; lo < len(order); lo += per {
		hi := min(lo+per, len(order))
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					t0 := time.Now()
					status, cache, resp, err := d.post("/v1/compile", "application/json", bytes.NewReader(body(order[i])), &buf)
					lat[i] = time.Since(t0)
					if err != nil {
						status = 0
					}
					handle(i, status, cache, resp)
				}
			}()
		}
		wg.Wait()
		walls = append(walls, time.Since(start))
		check(lo, hi)
	}
	return lat, walls
}

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	mu    sync.Mutex
	n     int
	notes []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.notes) < 8 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// setUp starts the daemon setups times, each time to ready plus prepare,
// keeping the last one running; it returns that daemon and the median
// set-up time in seconds.
func setUp(cfg *config, prepare func(d *daemon, last bool) error) (*daemon, float64, error) {
	times := make([]float64, 0, setups)
	var d *daemon
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		var err error
		d, err = startDaemon(cfg.triosd, cfg.procs, cfg.procs)
		if err != nil {
			return nil, 0, err
		}
		if err := cfg.guard(d); err != nil {
			d.kill()
			return nil, 0, err
		}
		if err := prepare(d, k == setups-1); err != nil {
			d.kill()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if k < setups-1 {
			if _, err := d.stop(); err != nil {
				return nil, 0, err
			}
		}
	}
	return d, median(times), nil
}

// warmUp sends the per-device warm-up compiles.
func warmUp(d *daemon, reqs []compileReq) error {
	var buf bytes.Buffer
	for _, r := range reqs {
		status, _, resp, err := d.post("/v1/compile", "application/json", bytes.NewReader(r.Body), &buf)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("warm-up compile on %s: status %d: %s", r.Topology, status, resp)
		}
	}
	return nil
}

// serveResult is what a serve workload measured.
type serveResult struct {
	setup      float64
	lat        []time.Duration
	wall       time.Duration
	batchWalls []time.Duration
	ok         int
	inGates    int
	cx         int
	logSuccess []float64 // per OK response, in request order
	floored    int       // estimates that underflowed to 0
	rss        float64
	attempted  int
	fail       failures
	digest     string
	altDigest  string
}

func (r *serveResult) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":         {r.setup, "s"},
		"requests_per_s":  {float64(r.ok) / r.wall.Seconds(), "1/s"},
		"latency_ms_p50":  {latencyMs(r.lat, 0.5), "ms"},
		"latency_ms_p90":  {latencyMs(r.lat, 0.9), "ms"},
		"gates_per_s":     {float64(r.inGates) / r.wall.Seconds(), "1/s"},
		"peak_rss_mib":    {r.rss, "MiB"},
		"cx_total":        {float64(r.cx), "count"},
		"success_geomean": {geomean(r.logSuccess), "prob"},
	}
}

// serveCold is the serve-cold workload: every request is new content.
func serveCold(cfg *config) (*serveResult, error) {
	b, gs, err := cfg.inputs()
	if err != nil {
		return nil, err
	}
	reps := max(1, cfg.seconds*coldPerSecond/176)
	reqs, err := b.coldRequests(cfg.seed, reps)
	if err != nil {
		return nil, err
	}
	alt, err := b.coldRequests(cfg.seed+1, reps)
	if err != nil {
		return nil, err
	}
	res := &serveResult{digest: digestReqs(reqs), altDigest: digestReqs(alt)}
	progress("generated %d requests", len(reqs))
	warm, err := warmupRequests()
	if err != nil {
		return nil, err
	}
	d, setup, err := setUp(cfg, func(d *daemon, _ bool) error { return warmUp(d, warm) })
	if err != nil {
		return nil, err
	}
	res.setup = setup
	progress("set up %d times, median %.4fs", setups, setup)

	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	resps := make([][]byte, len(reqs))
	status := make([]int, len(reqs))
	caches := make([]string, len(reqs))
	cx := make([]int, len(reqs))
	logs := make([]float64, len(reqs))
	good := make([]bool, len(reqs))
	floored := make([]bool, len(reqs))
	sampleRNG := rand.New(rand.NewSource(cfg.seed ^ 0x51b))
	samples := map[int]bool{}
	for len(samples) < min(simSamples, len(reqs)) {
		samples[sampleRNG.Intn(len(reqs))] = true
	}
	type kept struct {
		a    *artifact
		prog *circuit.Circuit
	}
	keep := map[int]kept{}
	// Each batch holds whole replicas, so every batch is the same mix.
	per := 176 * ((reps + batchesPerRun - 1) / batchesPerRun)
	res.lat, res.batchWalls = timedRequests(d, cfg.procs, per, order,
		func(i int) []byte { return reqs[i].Body },
		func(i, st int, cache string, resp []byte) {
			status[i], caches[i] = st, cache
			resps[i] = append([]byte(nil), resp...)
		},
		func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r := &reqs[i]
				switch {
				case status[i] != 200:
					res.fail.add("request %d (%s on %s): status %d", i, r.Bench, r.Topology, status[i])
				case caches[i] != "miss":
					res.fail.add("request %d: X-Trios-Cache %q, want miss", i, caches[i])
				default:
					a, prog, err := checkArtifact(resps[i], gs[r.Topology])
					if err != nil {
						res.fail.add("request %d (%s on %s): %v", i, r.Bench, r.Topology, err)
						break
					}
					good[i], cx[i] = true, a.TwoQubitGates
					logs[i], floored[i] = logSuccess(a)
					if samples[i] {
						keep[i] = kept{a, prog}
					}
				}
				resps[i] = nil
			}
		})
	res.wall = sum(res.batchWalls)
	progress("timed %d requests in %.2fs, checked", len(reqs), res.wall.Seconds())
	for i := range reqs {
		if good[i] {
			res.ok++
			res.inGates += reqs[i].Gates
			res.cx += cx[i]
			res.logSuccess = append(res.logSuccess, logs[i])
			if floored[i] {
				res.floored++
			}
		}
	}
	res.attempted = len(reqs)
	for i := range reqs {
		if !samples[i] {
			continue
		}
		res.attempted++
		k, ok := keep[i]
		if !ok {
			res.fail.add("simulation sample %d: no checked response", i)
			continue
		}
		if err := verifySample(reqs[i].QASM, k.a, k.prog, cfg.seed); err != nil {
			res.fail.add("simulation sample %d (%s on %s): %v", i, reqs[i].Bench, reqs[i].Topology, err)
		}
	}
	progress("verified %d samples by simulation", simSamples)
	if res.rss, err = d.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

// serveWarm is the serve-warm workload: the grid cells are primed during
// set-up and every timed request is an in-memory cache hit.
func serveWarm(cfg *config) (*serveResult, error) {
	b, gs, err := cfg.inputs()
	if err != nil {
		return nil, err
	}
	cells, err := b.gridCells(cfg.seed)
	if err != nil {
		return nil, err
	}
	altCells, err := b.gridCells(cfg.seed + 1)
	if err != nil {
		return nil, err
	}
	order := warmOrder(cfg.seed, len(cells), max(1, cfg.seconds*warmPerSecond/len(cells)))
	res := &serveResult{digest: digestReqs(cells), altDigest: digestReqs(altCells)}
	warm, err := warmupRequests()
	if err != nil {
		return nil, err
	}
	primed := make([][]byte, len(cells))
	arts := make([]*artifact, len(cells))
	progs := make([]*circuit.Circuit, len(cells))
	d, setup, err := setUp(cfg, func(d *daemon, last bool) error {
		if err := warmUp(d, warm); err != nil {
			return err
		}
		var buf bytes.Buffer
		for i, c := range cells {
			status, cache, resp, err := d.post("/v1/compile", "application/json", bytes.NewReader(c.Body), &buf)
			if err != nil {
				return err
			}
			if status != 200 || cache != "miss" {
				return fmt.Errorf("priming cell %d (%s on %s): status %d, cache %q", i, c.Bench, c.Topology, status, cache)
			}
			if last {
				primed[i] = append([]byte(nil), resp...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.setup = setup
	progress("set up %d times, median %.4fs", setups, setup)
	for i, c := range cells {
		if arts[i], progs[i], err = checkArtifact(primed[i], gs[c.Topology]); err != nil {
			d.kill()
			return nil, fmt.Errorf("primed cell %d (%s on %s): %v", i, c.Bench, c.Topology, err)
		}
	}

	good := make([]bool, len(order))
	per := (len(order) + batchesPerRun - 1) / batchesPerRun
	res.lat, res.batchWalls = timedRequests(d, cfg.procs, per, order,
		func(i int) []byte { return cells[i].Body },
		func(i, st int, cache string, resp []byte) {
			cell := order[i]
			switch {
			case st != 200:
				res.fail.add("request %d (cell %d): status %d", i, cell, st)
			case cache != "hit":
				res.fail.add("request %d (cell %d): X-Trios-Cache %q, want hit", i, cell, cache)
			case !bytes.Equal(resp, primed[cell]):
				res.fail.add("request %d (cell %d): body differs from the primed body", i, cell)
			default:
				good[i] = true
			}
		},
		func(lo, hi int) {})
	res.wall = sum(res.batchWalls)
	progress("timed %d requests in %.2fs", len(order), res.wall.Seconds())
	for i, cell := range order {
		if good[i] {
			res.ok++
			res.inGates += cells[cell].Gates
			res.cx += arts[cell].TwoQubitGates
			l, floored := logSuccess(arts[cell])
			res.logSuccess = append(res.logSuccess, l)
			if floored {
				res.floored++
			}
		}
	}
	res.attempted = len(order)
	sampleRNG := rand.New(rand.NewSource(cfg.seed ^ 0x51b))
	for _, i := range sampleRNG.Perm(len(cells))[:simSamples] {
		res.attempted++
		if err := verifySample(cells[i].QASM, arts[i], progs[i], cfg.seed); err != nil {
			res.fail.add("simulation sample cell %d (%s on %s): %v", i, cells[i].Bench, cells[i].Topology, err)
		}
	}
	if res.rss, err = d.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func digestReqs(reqs []compileReq) string {
	parts := make([][]byte, len(reqs))
	for i, r := range reqs {
		parts[i] = r.Body
	}
	return digestInputs(parts...)
}
