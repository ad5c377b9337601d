// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds triosd and this runner from the checkout)
// and drives one workload per invocation:
//
//	perfbench -triosd .bench_build/triosd -out .bench_build \
//	    --workload serve-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it starts the real daemon, measures the workload's
// end-to-end metrics from outside, and checks every output. With --trace 1
// it replays the same seed's inputs in-process through the layers' public
// functions and reports per-layer metrics from its own spans. The last line
// of standard output is the result object; the lines before it are a
// readable table and a record of the host and the run.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo records where a run was measured.
type hostInfo struct {
	NumCPU           int    `json:"num_cpu"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs,omitempty"`
	GoVersion        string `json:"go_version"`
	DaemonGoVersion  string `json:"daemon_go_version,omitempty"`
}

// record is the run's full account, printed before the result line and
// kept under the output directory.
type record struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Seconds      int                  `json:"seconds"`
	Trace        bool                 `json:"trace"`
	Host         hostInfo             `json:"host"`
	HostBefore   hostRef              `json:"host_before"`
	HostAfter    hostRef              `json:"host_after"`
	InputsDigest string               `json:"inputs_digest"`
	NextSeedDiff bool                 `json:"next_seed_inputs_differ"`
	Samples      map[string]int       `json:"samples,omitempty"`
	Extra        map[string]float64   `json:"extra,omitempty"`
	Series       map[string][]float64 `json:"series,omitempty"`
	Exact        map[string]float64   `json:"exact"`
	Failures     []string             `json:"failures,omitempty"`
	Result       result               `json:"result"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	triosd   string
	out      string
	numCPU   int
	procs    int // GOMAXPROCS of the daemon and of a traced run; connections

	daemonProcs int
	daemonGo    string

	bodies *bodies
	graphs graphs
}

func (c *config) inputs() (*bodies, graphs, error) {
	if c.bodies == nil {
		b, err := loadBodies()
		if err != nil {
			return nil, nil, err
		}
		gs, err := newGraphs()
		if err != nil {
			return nil, nil, err
		}
		c.bodies, c.graphs = b, gs
	}
	return c.bodies, c.graphs, nil
}

// guard refuses a daemon that runs more Go processors than the host has
// CPUs: a parallel figure measured that way is not a parallel speed-up.
func (c *config) guard(d *daemon) error {
	if d.gomaxprocs > c.numCPU {
		return fmt.Errorf("triosd reports GOMAXPROCS %d > num_cpu %d; refusing to report", d.gomaxprocs, c.numCPU)
	}
	c.daemonProcs, c.daemonGo = d.gomaxprocs, d.goVersion
	return nil
}

var workloads = []string{"serve-cold", "serve-warm", "stream"}

var started = time.Now()

// progress notes a finished phase on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.1fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; inputs are generated from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length; sizes the fixed request set")
	flag.IntVar(&trace, "trace", 0, "1: in-process traced run reporting per-layer metrics")
	flag.StringVar(&cfg.triosd, "triosd", "", "path of the triosd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span dumps, records and the exactness ledger")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloads, ", "))
	case cfg.seconds < 1:
		return errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return errors.New("--trace must be 0 or 1")
	case trace == 0 && cfg.triosd == "":
		return errors.New("-triosd is required")
	}
	cfg.trace = trace == 1
	cfg.numCPU = runtime.NumCPU()
	cfg.procs = cfg.numCPU
	// The traced run hosts the service in this process, so it gets the
	// daemon's GOMAXPROCS. The load generator mostly waits on sockets; one
	// processor keeps it from competing with the daemon for the CPUs.
	if cfg.trace {
		runtime.GOMAXPROCS(cfg.procs)
	} else {
		runtime.GOMAXPROCS(1)
	}
	if p := runtime.GOMAXPROCS(0); p > cfg.numCPU {
		return fmt.Errorf("GOMAXPROCS %d > num_cpu %d; refusing to report", p, cfg.numCPU)
	}
	// Collecting the runner's own garbage less often keeps it out of the
	// daemon's way.
	debug.SetGCPercent(400)

	rec := record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	rec.HostBefore = probeHost()
	var (
		out *runOutput
		err error
	)
	if cfg.trace {
		out, err = traced(cfg)
	} else {
		out, err = untraced(cfg)
	}
	if err != nil {
		return err
	}
	rec.HostAfter = probeHost()
	rec.Host = hostInfo{NumCPU: cfg.numCPU, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DaemonGOMAXPROCS: cfg.daemonProcs, DaemonGoVersion: cfg.daemonGo}
	rec.InputsDigest, rec.NextSeedDiff = out.digest, out.digest != out.altDigest
	rec.Samples, rec.Extra, rec.Series, rec.Exact = out.samples, out.extra, out.series, out.exact
	rec.Failures = out.fail.notes
	correct := out.fail.n == 0
	if !rec.NextSeedDiff {
		correct = false
		rec.Failures = append(rec.Failures, "seed+1 generated the same inputs as seed")
	}
	if err := checkLedger(cfg, out.exact); err != nil {
		correct = false
		rec.Failures = append(rec.Failures, err.Error())
	}
	rec.Result = result{Correct: correct, Attempted: out.attempted, Failed: out.fail.n, Metrics: out.metrics}
	return report(cfg, &rec)
}

// runOutput is what a traced or untraced run hands back to run.
type runOutput struct {
	metrics   map[string]metric
	attempted int
	fail      *failures
	samples   map[string]int
	extra     map[string]float64
	series    map[string][]float64
	exact     map[string]float64 // must repeat exactly for a seed
	digest    string
	altDigest string
}

func untraced(cfg *config) (*runOutput, error) {
	var (
		r   *serveResult
		err error
	)
	switch cfg.workload {
	case "serve-cold":
		r, err = serveCold(cfg)
	case "serve-warm":
		r, err = serveWarm(cfg)
	default:
		r, err = streamWorkload(cfg)
	}
	if err != nil {
		return nil, err
	}
	m := r.metrics()
	return &runOutput{
		metrics:   m,
		attempted: r.attempted,
		fail:      &r.fail,
		samples:   map[string]int{"latency": len(r.lat), "ok": r.ok, "success_terms": len(r.logSuccess), "success_floored": r.floored},
		extra:     map[string]float64{"timed_wall_s": r.wall.Seconds(), "latency_ms_p99": latencyMs(r.lat, 0.99)},
		series:    map[string][]float64{"batch_wall_ms": durs(r.batchWalls)},
		exact:     map[string]float64{"cx_total": m["cx_total"].Value, "success_geomean": m["success_geomean"].Value},
		digest:    r.digest,
		altDigest: r.altDigest,
	}, nil
}

func latencyMs(lat []time.Duration, p float64) float64 { return quantile(durs(lat), p) }

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// checkLedger compares this run's exact values with those an earlier run
// of the same build, workload, seed and length recorded, and records new
// ones. A value that differs means the program (or the benchmark) is not
// deterministic for a seed, and the run is reported incorrect.
func checkLedger(cfg *config, exact map[string]float64) error {
	build, err := buildID()
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.out, "exact", build)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-s%d.json", cfg.workload, cfg.seed, cfg.seconds))
	prev := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("exactness ledger %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var diffs []string
	for k, v := range exact {
		if p, ok := prev[k]; ok && math.Float64bits(p) != math.Float64bits(v) {
			diffs = append(diffs, fmt.Sprintf("%s %v, earlier run of this seed %v", k, v, p))
		}
		prev[k] = v
	}
	b, err := json.Marshal(prev)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("not exact across runs of one seed: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// buildID fingerprints this runner's executable, which is built from the
// same sources as the daemon, so a ledger entry never outlives the code
// that produced it.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6]), nil
}

// report prints the table, the record line and the result line, and keeps
// the record under the output directory.
func report(cfg *config, rec *record) error {
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%d trace=%v num_cpu=%d gomaxprocs=%d go=%s",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion)
	if rec.Host.DaemonGOMAXPROCS > 0 {
		fmt.Printf(" daemon_gomaxprocs=%d daemon_go=%s", rec.Host.DaemonGOMAXPROCS, rec.Host.DaemonGoVersion)
	}
	fmt.Println()
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	if w, ok := rec.Extra["traced_wall_s"]; ok {
		fmt.Printf("%-40s %16.6g s", "traced timed-set wall", w)
		if u, ok := rec.Extra["untraced_wall_s"]; ok {
			fmt.Printf(" (untraced run of this seed: %.6g s)", u)
		}
		fmt.Println()
	}
	fmt.Printf("%-40s %16.6g ms -> %.6g ms\n", "host.ref_alu_ms", rec.HostBefore.ALUms, rec.HostAfter.ALUms)
	fmt.Printf("%-40s %16.6g ms -> %.6g ms\n", "host.ref_mem_ms", rec.HostBefore.Memms, rec.HostAfter.Memms)
	for _, f := range rec.Failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.out, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", rec.Workload, rec.Seed, rec.Trace)
	if err := os.WriteFile(filepath.Join(dir, name), line, 0o644); err != nil {
		return err
	}
	fmt.Printf("record %s\n", line)
	res, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}
