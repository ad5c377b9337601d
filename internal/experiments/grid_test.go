package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/compiler"
	"trios/internal/device"
	"trios/internal/noise"
	"trios/internal/topo"
)

// optimizedCell is one row of testdata/optimized_grid.json: a Table-1 cell
// compiled with Optimize under the paper's options at seed 2021. The saturate
// columns are the rewrite engine's output counts; legacy_two_qubit is the
// legacy pairwise cancel loop's count for the same cell, frozen when the
// fixture was taken so the comparison outlives that golden arm.
type optimizedCell struct {
	Benchmark        string `json:"benchmark"`
	Topology         string `json:"topology"`
	Pipeline         string `json:"pipeline"`
	LegacyTwoQubit   int    `json:"legacy_two_qubit"`
	SaturateTwoQubit int    `json:"saturate_two_qubit"`
	SaturateTotal    int    `json:"saturate_total"`
}

// TestOptimizedGridPinned pins the optimized Table-1 grid (benchmark x paper
// topology x pipeline) to its fixture gate counts. The fixture's own columns
// must keep the saturating engine at or below the frozen legacy counts, with
// at least 8 cells strictly below, so re-pinning cannot hide a regression
// against the legacy arm.
func TestOptimizedGridPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/optimized_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	var cells []optimizedCell
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]optimizedCell, len(cells))
	better := 0
	for _, c := range cells {
		key := c.Benchmark + " " + c.Pipeline + " on " + c.Topology
		if _, dup := want[key]; dup {
			t.Fatalf("fixture lists %s twice", key)
		}
		want[key] = c
		if c.SaturateTwoQubit > c.LegacyTwoQubit {
			t.Errorf("fixture %s: saturate %d > legacy %d two-qubit gates", key, c.SaturateTwoQubit, c.LegacyTwoQubit)
		}
		if c.SaturateTwoQubit < c.LegacyTwoQubit {
			better++
		}
	}
	if better < 8 {
		t.Errorf("fixture has %d cells strictly below legacy, want >= 8", better)
	}

	compiled := 0
	for _, b := range benchmarks.All() {
		input, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range topo.PaperTopologies() {
			for _, pipe := range []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline} {
				key := fmt.Sprintf("%s %v on %s", b.Name, pipe, g.Name())
				c, ok := want[key]
				if !ok {
					t.Errorf("%s: missing from the fixture", key)
					continue
				}
				opts := pairOptions(pipe, 2021)
				opts.Optimize = true
				res, err := compiler.Compile(input, g, opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if err := res.Verify(); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				compiled++
				if got := res.TwoQubitGates(); got != c.SaturateTwoQubit {
					t.Errorf("%s: %d two-qubit gates, fixture %d", key, got, c.SaturateTwoQubit)
				}
				if got := len(res.Physical.Gates); got != c.SaturateTotal {
					t.Errorf("%s: %d gates, fixture %d", key, got, c.SaturateTotal)
				}
			}
		}
	}
	if compiled != len(cells) {
		t.Errorf("compiled %d grid cells, fixture has %d", compiled, len(cells))
	}
}

// TestNoiseAwareBeatsUniform compiles a short grid twice under each device's
// registry calibration, once with the noise cost model the calibration
// implies and once with the noise-blind Uniform control, and scores both on
// the calibration improved 20x (the paper's forward-looking setting). The
// noise-aware arm must not lose on mean estimated success, and must be
// strictly ahead on a majority of cells, so a cost model that is silently
// dropped (both arms equal) or inverted (placement alone carrying the mean)
// fails too.
func TestNoiseAwareBeatsUniform(t *testing.T) {
	names := []string{"cnx_inplace-4", "incrementer_borrowedbit-5", "grovers-9", "qft_adder-16"}
	var sumUniform, sumNoise float64
	cells, wins := 0, 0
	for _, tn := range []string{"johannesburg", "grid"} {
		g, err := topo.ByName(tn)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := device.ForDevice(tn)
		if err != nil {
			t.Fatal(err)
		}
		eval := cal.Improved(20)
		for _, name := range names {
			b, err := benchmarks.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			input, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			var success [2]float64
			for arm, cost := range []device.CostModel{device.Uniform{}, nil} {
				res, err := compiler.Compile(input, g, compiler.Options{
					Pipeline:    compiler.TriosPipeline,
					Placement:   compiler.PlaceGreedy,
					Seed:        2021,
					Calibration: cal,
					CostModel:   cost,
				})
				if err != nil {
					t.Fatalf("%s on %s: %v", name, tn, err)
				}
				if err := res.Verify(); err != nil {
					t.Fatalf("%s on %s: %v", name, tn, err)
				}
				if success[arm], _, err = noise.SuccessWithCalibration(res.Physical, eval, noise.CoherencePerQubit); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%-26s %-13s uniform %.4f  noise-aware %.4f", name, tn, success[0], success[1])
			sumUniform += success[0]
			sumNoise += success[1]
			cells++
			if success[1] > success[0] {
				wins++
			}
		}
	}
	meanUniform, meanNoise := sumUniform/float64(cells), sumNoise/float64(cells)
	t.Logf("mean success over %d cells: uniform %.4f  noise-aware %.4f; noise-aware ahead on %d",
		cells, meanUniform, meanNoise, wins)
	if meanNoise < meanUniform {
		t.Errorf("noise-aware mean success %.4f < uniform %.4f", meanNoise, meanUniform)
	}
	if 2*wins <= cells {
		t.Errorf("noise-aware ahead on %d of %d cells, want a majority", wins, cells)
	}
}

// TestRunNoiseBenchDeterministic runs the noise-aware and Uniform arms of a
// short calibrated grid through the experiments' batch path with the default
// and with one worker; the compiled circuits and their estimated success must
// be identical, so calibration-carrying jobs stay pure in their seed for any
// worker count.
func TestRunNoiseBenchDeterministic(t *testing.T) {
	var jobs []compiler.Job
	var evals []*device.Calibration
	for _, tn := range []string{"johannesburg", "grid"} {
		g, err := topo.ByName(tn)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := device.ForDevice(tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"cnx_inplace-4", "grovers-9"} {
			b, err := benchmarks.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			input, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, cost := range []device.CostModel{device.Uniform{}, nil} {
				jobs = append(jobs, compiler.Job{
					ID:    fmt.Sprintf("%s/%s/uniform=%v", name, tn, cost != nil),
					Input: input,
					Graph: g,
					Opts: compiler.Options{
						Pipeline:    compiler.TriosPipeline,
						Placement:   compiler.PlaceGreedy,
						Seed:        7,
						Calibration: cal,
						CostModel:   cost,
					},
				})
				evals = append(evals, cal.Improved(20))
			}
		}
	}
	a, err := runBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	old := Workers
	Workers = 1
	defer func() { Workers = old }()
	b, err := runBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("%s: errs %v / %v", j.ID, a[i].Err, b[i].Err)
		}
		if !a[i].Result.Physical.Equal(b[i].Result.Physical) {
			t.Fatalf("%s: compiled circuits differ across worker counts", j.ID)
		}
		pa, _, err := noise.SuccessWithCalibration(a[i].Result.Physical, evals[i], noise.CoherencePerQubit)
		if err != nil {
			t.Fatal(err)
		}
		pb, _, err := noise.SuccessWithCalibration(b[i].Result.Physical, evals[i], noise.CoherencePerQubit)
		if err != nil {
			t.Fatal(err)
		}
		if pa != pb {
			t.Fatalf("%s: estimated success %v vs %v across worker counts", j.ID, pa, pb)
		}
	}
}
