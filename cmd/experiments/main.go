// Command experiments regenerates the paper's tables and figures.
//
// Compilation-heavy experiments fan out across a worker pool; -workers
// caps the parallelism (default: GOMAXPROCS). Results are identical for
// any worker count. An unknown -exp name is a usage error. Performance is
// measured by the serving benchmark (bash perfbench/run.sh), not here.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp table1 -workers 8
//	experiments -exp fig1,fig6,fig7,fig8,fig9,fig10,fig11,fig12
//	experiments -triplets 35 -shots 8192 -seed 2021
//	experiments -exp mc-toffoli,mc-rp -mc-shots 128   # trajectory Monte-Carlo suites
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"trios/internal/experiments"
	"trios/internal/noise"
	"trios/internal/topo"
	"trios/internal/version"
)

// experimentNames are the -exp names that "all" runs; trajectoryNames are
// the Monte-Carlo-heavy suites that run only when named.
var (
	experimentNames = []string{"table1", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation", "toffoli-topos", "rp", "scaling", "fig12"}
	trajectoryNames = []string{"mc-toffoli", "mc-rp"}
)

// experimentList renders the -exp names for the flag help and the
// unknown-name error.
func experimentList() string {
	return fmt.Sprintf("all, %s, or the opt-in trajectory suites %s (not included in all)",
		strings.Join(experimentNames, ", "), strings.Join(trajectoryNames, ", "))
}

// parseExperiments splits a comma-separated -exp value into the set of
// requested names, rejecting any name that is not an experiment.
func parseExperiments(spec string) (map[string]bool, error) {
	valid := map[string]bool{"all": true}
	for _, n := range slices.Concat(experimentNames, trajectoryNames) {
		valid[n] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(spec, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !valid[e] {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s", e, experimentList())
		}
		want[e] = true
	}
	return want, nil
}

func main() {
	var (
		exp         = flag.String("exp", "all", "comma-separated experiments: "+experimentList())
		triplets    = flag.Int("triplets", 35, "random qubit triples for the Toffoli experiments (fig6/fig7; fig8 uses 99)")
		shots       = flag.Int("shots", 8192, "shots per Toffoli configuration")
		seed        = flag.Int64("seed", 2021, "random seed")
		jsonPath    = flag.String("json", "", "also write all results as JSON to this file")
		workers     = flag.Int("workers", 0, "parallel compilation workers (0 = GOMAXPROCS)")
		mcShots     = flag.Int("mc-shots", 64, "trajectory Monte-Carlo shots for the mc-toffoli/mc-rp experiments")
		mcTrips     = flag.Int("mc-triplets", 4, "random triplets for the mc-toffoli experiment")
		showVersion = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Get())
		return
	}
	want, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	experiments.Workers = *workers

	if *jsonPath != "" {
		report, err := experiments.BuildReport(*triplets, *shots, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	all := want["all"]

	run := func(name string, f func() error) {
		if !all && !want[name] {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	out := os.Stdout
	g := topo.Johannesburg()

	run("table1", func() error { return experiments.WriteTable1(out) })
	run("fig1", func() error { return experiments.WriteFig1(out, *seed) })

	var toffoliResults []experiments.TripletResult
	needToffoli := all || want["fig6"] || want["fig7"]
	if needToffoli {
		// Default to the exact 35 triples from the paper's Figures 6-7;
		// -triplets N with N != 35 switches to seeded random triples.
		trips := experiments.PaperTriplets()
		if *triplets != len(trips) {
			trips = experiments.RandomTriplets(g, *triplets, *seed)
		}
		var err error
		toffoliResults, err = experiments.ToffoliExperiment(g, trips, noise.Johannesburg0819(), *shots, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	run("fig6", func() error { experiments.WriteFig6(out, toffoliResults); return nil })
	run("fig7", func() error { experiments.WriteFig7(out, toffoliResults); return nil })
	run("fig8", func() error {
		trips := experiments.RandomTriplets(g, 99, *seed+1)
		rs, err := experiments.ToffoliExperiment(g, trips, noise.Johannesburg0819(), *shots, *seed+1)
		if err != nil {
			return err
		}
		experiments.WriteFig8(out, rs)
		return nil
	})

	var sweep []experiments.BenchResult
	needSweep := all || want["fig9"] || want["fig10"] || want["fig11"]
	if needSweep {
		var err error
		sweep, err = experiments.BenchmarkSweep(experiments.DefaultModel(), *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	run("fig9", func() error { experiments.WriteFig9(out, sweep); return nil })
	run("fig10", func() error { experiments.WriteFig10(out, sweep); return nil })
	run("fig11", func() error { experiments.WriteFig11(out, sweep); return nil })

	run("ablation", func() error {
		for _, bench := range []string{"cnx_logancilla-19", "grovers-9", "cuccaro_adder-20"} {
			rs, err := experiments.Ablation(bench, *seed)
			if err != nil {
				return err
			}
			experiments.WriteAblation(out, rs)
			fmt.Println()
		}
		return nil
	})

	run("toffoli-topos", func() error {
		rs, err := experiments.ToffoliAcrossTopologies(*triplets, noise.Johannesburg0819(), *seed)
		if err != nil {
			return err
		}
		experiments.WriteToffoliTopos(out, rs)
		return nil
	})

	run("rp", func() error {
		rs, err := experiments.RelativePhase(experiments.DefaultModel(), *seed)
		if err != nil {
			return err
		}
		experiments.WriteRP(out, rs)
		return nil
	})

	run("scaling", func() error {
		points, err := experiments.Scaling(*seed)
		if err != nil {
			return err
		}
		experiments.WriteScaling(out, points)
		return nil
	})

	// Trajectory-backed suites run only when explicitly requested (they
	// are Monte-Carlo heavy and scale with -workers), never under "all".
	if want["mc-toffoli"] {
		fmt.Println("==== mc-toffoli ====")
		trips := experiments.RandomTriplets(g, *mcTrips, *seed)
		rs, err := experiments.ToffoliTrajectory(g, trips, noise.Johannesburg0819(), *mcShots, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mc-toffoli: %v\n", err)
			os.Exit(1)
		}
		experiments.WriteToffoliTrajectory(out, *mcShots, rs)
		fmt.Println()
	}
	if want["mc-rp"] {
		fmt.Println("==== mc-rp ====")
		rs, err := experiments.RPTrajectory(noise.Johannesburg0819(), 5, *mcShots, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mc-rp: %v\n", err)
			os.Exit(1)
		}
		experiments.WriteRPTrajectory(out, *mcShots, rs)
		fmt.Println()
	}

	run("fig12", func() error {
		base := noise.Johannesburg0819()
		base.ReadoutError = 0
		base.Coherence = noise.CoherencePerQubit
		points, err := experiments.Sensitivity(base, experiments.DefaultFactors(), *seed)
		if err != nil {
			return err
		}
		experiments.WriteFig12(out, points)
		return nil
	})
}
