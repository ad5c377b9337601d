// Command trios compiles OpenQASM 2.0 programs for a target device with
// either the conventional (decompose-first) pipeline or the Orchestrated
// Trios pipeline, and reports the compiled statistics the paper evaluates.
// When both pipelines are requested (-pipeline both) they compile
// concurrently through the batch engine; -workers caps the parallelism.
//
// Usage:
//
//	trios -in program.qasm -topology johannesburg -pipeline trios -out compiled.qasm
//	trios -benchmark grovers-9 -topology line -pipeline both -stats
//	trios -benchmark cuccaro_adder-20 -pipeline both -model 20x -workers 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/device"
	"trios/internal/experiments"
	"trios/internal/noise"
	"trios/internal/qasm"
	"trios/internal/sim"
	"trios/internal/topo"
	"trios/internal/version"
)

// errFlagParse marks a flag error the FlagSet already reported to stderr
// (message + usage); main must not print it a second time.
var errFlagParse = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errFlagParse) {
			os.Exit(2) // usage error, already reported; 2 matches flag.ExitOnError
		}
		fmt.Fprintln(os.Stderr, "trios:", err)
		os.Exit(1)
	}
}

// run is the testable CLI entry point: flags come from args, all output goes
// to out, and failures return errors instead of exiting.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trios", flag.ContinueOnError)
	var (
		inPath      = fs.String("in", "", "input OpenQASM 2.0 file")
		benchName   = fs.String("benchmark", "", "compile a named Table-1 benchmark instead of -in (see -list)")
		list        = fs.Bool("list", false, "list available benchmarks and exit")
		outPath     = fs.String("out", "", "write compiled OpenQASM here (default: stdout when not printing stats)")
		topoName    = fs.String("topology", "johannesburg", "target device: johannesburg, grid, line, clusters, full")
		pipeline    = fs.String("pipeline", "trios", "pipeline: trios, baseline, or both (both implies -stats)")
		mode        = fs.String("toffoli", "auto", "toffoli decomposition: auto, 6, 8")
		routerKind  = fs.String("router", "direct", "routing strategy: direct, stochastic, or lookahead")
		placement   = fs.String("placement", "greedy", "initial mapping: greedy, identity, random")
		seed        = fs.Int64("seed", 1, "seed for stochastic routing and random placement")
		stats       = fs.Bool("stats", false, "print compile statistics instead of QASM")
		optimize    = fs.Bool("optimize", false, "run gate cancellation before and after compilation")
		calibration = fs.String("calibration", "", "device calibration: a registry name (e.g. johannesburg-0819) or a JSON file; makes compilation noise-aware and reports estimated success + makespan")
		cost        = fs.String("cost", "", "cost model under -calibration: noise (default) or uniform (compile noise-blind, bit-identical to no calibration, but still report fidelity)")
		draw        = fs.Bool("draw", false, "print an ASCII diagram of the compiled circuit")
		verify      = fs.Bool("verify", false, "verify the compiled circuit against the source (stabilizer sim for Clifford circuits, statevector for small devices, basis-state spot checks otherwise)")
		model       = fs.String("model", "", "also estimate success probability: 'current' or '<N>x' improvement")
		workers     = fs.Int("workers", 0, "parallel compilation workers when several pipelines run (0 = GOMAXPROCS)")
		showVersion = fs.Bool("version", false, "print build version and exit")
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

	if *list {
		for _, b := range benchmarks.All() {
			m, err := b.Measure()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-28s %2d qubits, %3d toffolis, %4d cnots\n", b.Name, m.Qubits, m.Toffolis, m.CNOTs)
		}
		return nil
	}

	input, err := loadInput(*inPath, *benchName)
	if err != nil {
		return err
	}
	g, err := topo.ByName(*topoName)
	if err != nil {
		return err
	}
	opts := compiler.Options{Seed: *seed, Optimize: *optimize}
	if opts.Mode, err = compiler.ParseToffoli(*mode); err != nil {
		return err
	}
	if opts.Router, err = compiler.ParseRouter(*routerKind); err != nil {
		return err
	}
	if opts.Placement, err = compiler.ParsePlacement(*placement); err != nil {
		return err
	}
	if opts.Calibration, opts.CostModel, err = loadCalibration(*calibration, *cost); err != nil {
		return err
	}

	var pipes []compiler.Pipeline
	switch *pipeline {
	case "both":
		pipes = []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline}
		*stats = true
	default:
		p, err := compiler.ParsePipeline(*pipeline)
		if err != nil {
			return err
		}
		pipes = []compiler.Pipeline{p}
	}

	var noiseModel *noise.Params
	if *model != "" {
		m, err := parseModel(*model)
		if err != nil {
			return err
		}
		noiseModel = &m
	}

	// Compile every requested pipeline through the batch engine, then report
	// in pipeline order (the worker pool changes nothing about the results).
	jobs := make([]compiler.Job, len(pipes))
	for i, pipe := range pipes {
		o := opts
		o.Pipeline = pipe
		jobs[i] = compiler.Job{ID: pipe.String(), Input: input, Graph: g, Opts: o}
	}
	batch := &compiler.Batch{Workers: *workers}
	batchResults, err := batch.Run(context.Background(), jobs)
	if err != nil {
		return err
	}

	for i, pipe := range pipes {
		res, jobErr := batchResults[i].Result, batchResults[i].Err
		if jobErr != nil {
			return fmt.Errorf("%v pipeline: %w", pipe, jobErr)
		}
		if err := res.Verify(); err != nil {
			return err
		}
		if *verify {
			how, err := verifyResult(input, res)
			if err != nil {
				return fmt.Errorf("%v pipeline verification FAILED: %w", pipe, err)
			}
			fmt.Fprintf(out, "%-9s  verified equivalent to source (%s)\n", pipe, how)
		}
		if *draw {
			fmt.Fprintf(out, "--- %v pipeline ---\n%s", pipe, res.Physical.Draw())
		}
		if *stats {
			printStats(out, pipe, res, noiseModel)
			continue
		}
		if *draw {
			continue
		}
		src, err := qasm.Emit(res.Physical)
		if err != nil {
			return err
		}
		if *outPath == "" {
			fmt.Fprint(out, src)
		} else if err := os.WriteFile(*outPath, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// loadCalibration resolves -calibration: a registry name first, else a JSON
// calibration file, with -cost parsed by the same helper the wire protocol
// uses so the CLI and the daemon accept one vocabulary.
func loadCalibration(name, cost string) (*device.Calibration, device.CostModel, error) {
	if name == "" || !strings.ContainsAny(name, "./"+string(os.PathSeparator)) {
		return compiler.ResolveCalibration(name, cost)
	}
	cal, err := device.LoadFile(name)
	if err != nil {
		return nil, nil, err
	}
	cm, err := compiler.ParseCost(cost)
	if err != nil {
		return nil, nil, err
	}
	return cal, cm, nil
}

func loadInput(inPath, benchName string) (*circuit.Circuit, error) {
	switch {
	case inPath != "" && benchName != "":
		return nil, fmt.Errorf("use either -in or -benchmark, not both")
	case inPath != "":
		data, err := os.ReadFile(inPath)
		if err != nil {
			return nil, err
		}
		return qasm.Parse(string(data))
	case benchName != "":
		b, err := benchmarks.ByName(benchName)
		if err != nil {
			return nil, err
		}
		return b.Build()
	}
	return nil, fmt.Errorf("no input: pass -in file.qasm or -benchmark name (see -list)")
}

func parseModel(s string) (noise.Params, error) {
	m := experiments.DefaultModel()
	if s == "current" {
		base := noise.Johannesburg0819()
		base.ReadoutError = 0
		base.Coherence = noise.CoherencePerQubit
		return base, nil
	}
	var factor float64
	if _, err := fmt.Sscanf(s, "%fx", &factor); err != nil || factor <= 0 {
		return m, fmt.Errorf("bad -model %q (want 'current' or e.g. '20x')", s)
	}
	base := noise.Johannesburg0819()
	base.ReadoutError = 0
	base.Coherence = noise.CoherencePerQubit
	return base.Improved(factor), nil
}

// verifyResult checks compiled-vs-source equivalence through the simulation
// engine, which auto-selects the backend: Clifford circuits go to the
// stabilizer tableau (exact at any device size), everything else to the
// fused-kernel statevector up to the dense cap. Classical sources on devices
// too large to hold a statevector fall back to basis-state spot checks.
func verifyResult(input *circuit.Circuit, res *compiler.Result) (string, error) {
	n := input.NumQubits
	devQubits := res.Graph.NumQubits()
	stripped := input.StripPseudo()
	physical := res.Physical.StripPseudo()

	eng := &sim.Engine{}
	clifford := circuit.IsClifford(stripped) && circuit.IsClifford(physical)
	// The engine covers Clifford circuits at any device size and dense
	// verification up to its cap. Prefer cheap classical spot checks over a
	// huge statevector when the source is classical and the device large.
	if clifford || devQubits <= 14 || (devQubits <= sim.MaxQubits && !sim.IsClassical(stripped)) {
		v, err := eng.VerifyCompiled(stripped, physical, devQubits,
			res.Initial[:n], res.Final[:n], 3, 12345)
		if err != nil {
			return "", err
		}
		if !v.Equivalent {
			return "", fmt.Errorf("%s backend: compiled state differs from source", v.Backend)
		}
		switch v.Backend {
		case "stabilizer":
			return "engine: stabilizer tableau, exact", nil
		default:
			return "engine: statevector (fused kernels), 3 random states", nil
		}
	}

	// Large non-Clifford classical circuits: basis-state spot checks through
	// the statevector (the compiled circuit must map prepared basis inputs
	// the same way the source does when the source is classical-in/out).
	for _, in := range []uint64{0, (1 << uint(n)) - 1, 0b1010101 & ((1 << uint(n)) - 1)} {
		srcOut, err := sim.ClassicalOutput(stripped, in)
		if err != nil {
			return "", fmt.Errorf("source is not basis-preserving; cannot spot check: %w", err)
		}
		var physIn uint64
		for v := 0; v < n; v++ {
			if in&(1<<uint(v)) != 0 {
				physIn |= 1 << uint(res.Initial[v])
			}
		}
		physOut, err := sim.ClassicalOutput(physical, physIn)
		if err != nil {
			return "", err
		}
		var back uint64
		for v := 0; v < n; v++ {
			if physOut&(1<<uint(res.Final[v])) != 0 {
				back |= 1 << uint(v)
			}
		}
		if back != srcOut {
			return "", fmt.Errorf("basis input %b maps to %b, want %b", in, back, srcOut)
		}
	}
	return "basis-state spot checks", nil
}

func printStats(out io.Writer, pipe compiler.Pipeline, res *compiler.Result, model *noise.Params) {
	s := res.Physical.CollectStats()
	fmt.Fprintf(out, "%-9s  two-qubit gates %5d  swaps %4d  depth %5d  total gates %6d\n",
		pipe, s.TwoQubit, res.SwapsAdded, res.Physical.Depth(), s.Total)
	if res.Makespan > 0 {
		fmt.Fprintf(out, "           calibrated (%s): estimated success %.4g  makespan %.3f us\n",
			res.CostModel, res.EstimatedSuccess, res.Makespan)
	}
	if model != nil {
		p, err := noise.SuccessProbability(res.Physical, *model)
		if err != nil {
			fmt.Fprintf(out, "           success estimate failed: %v\n", err)
			return
		}
		fmt.Fprintf(out, "           estimated success probability %.4g\n", p)
	}
}
