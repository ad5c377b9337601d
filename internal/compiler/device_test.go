package compiler

import (
	"math"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/device"
	"trios/internal/noise"
	"trios/internal/qasm"
	"trios/internal/sched"
	"trios/internal/topo"
)

// TestCalibrationEndToEnd is the satellite end-to-end check: one Calibration
// drives layout, routing, and scheduling, and the pipeline's fidelity block
// must match the noise package's closed form evaluated independently on the
// compiled circuit — on real (small) benchmarks, for both pipelines.
func TestCalibrationEndToEnd(t *testing.T) {
	cal, err := device.ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	for _, bench := range []string{"cnx_inplace-4", "incrementer_borrowedbit-5"} {
		b, err := benchmarks.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		input, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
			res, err := Compile(input, g, Options{
				Pipeline:    pipe,
				Placement:   PlaceGreedy,
				Calibration: cal,
				Seed:        1,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", bench, pipe, err)
			}
			if err := res.Verify(); err != nil {
				t.Fatal(err)
			}
			if res.CostModel != "noise:johannesburg-0819" {
				t.Errorf("%s/%v: cost model %q", bench, pipe, res.CostModel)
			}
			// The fidelity block must match the closed form exactly.
			wantP, wantD, err := noise.SuccessWithCalibration(res.Physical, cal, noise.CoherencePerQubit)
			if err != nil {
				t.Fatal(err)
			}
			if res.EstimatedSuccess != wantP {
				t.Errorf("%s/%v: EstimatedSuccess %v != closed form %v", bench, pipe, res.EstimatedSuccess, wantP)
			}
			if res.Makespan != wantD {
				t.Errorf("%s/%v: Makespan %v != closed form %v", bench, pipe, res.Makespan, wantD)
			}
			// And the makespan is the ASAP schedule under the calibration's
			// own gate times — sched reads the same data.
			clock, err := sched.Run(res.Physical, cal.Times)
			if err != nil {
				t.Fatal(err)
			}
			if d := clock.Makespan(); res.Makespan != d {
				t.Errorf("%s/%v: Makespan %v != sched %v", bench, pipe, res.Makespan, d)
			}
			if res.EstimatedSuccess <= 0 || res.EstimatedSuccess >= 1 {
				t.Errorf("%s/%v: implausible success estimate %v", bench, pipe, res.EstimatedSuccess)
			}
		}
	}
}

// TestUniformCostModelByteIdentical is the acceptance pin: compiling with a
// calibration under the Uniform cost model must produce byte-identical QASM
// and identical layouts to a calibration-less compile, across a grid of
// benchmarks, devices, pipelines, and routers — the calibration then only
// adds the fidelity stats block.
func TestUniformCostModelByteIdentical(t *testing.T) {
	cal, err := device.ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchmarks.ByName("cnx_inplace-4")
	if err != nil {
		t.Fatal(err)
	}
	input, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
		for _, router := range []RouterKind{RouteDirect, RouteStochastic, RouteLookahead} {
			opts := Options{Pipeline: pipe, Router: router, Placement: PlaceGreedy, Seed: 7}
			plain, err := Compile(input, g, opts)
			if err != nil {
				t.Fatalf("%v/%v: %v", pipe, router, err)
			}
			withCal := opts
			withCal.Calibration = cal
			withCal.CostModel = device.Uniform{}
			calibrated, err := Compile(input, g, withCal)
			if err != nil {
				t.Fatalf("%v/%v: %v", pipe, router, err)
			}
			a, err := qasm.Emit(plain.Physical)
			if err != nil {
				t.Fatal(err)
			}
			bq, err := qasm.Emit(calibrated.Physical)
			if err != nil {
				t.Fatal(err)
			}
			if a != bq {
				t.Errorf("%v/%v: Uniform cost model changed the compiled QASM", pipe, router)
			}
			for v := range plain.Initial {
				if plain.Initial[v] != calibrated.Initial[v] || plain.Final[v] != calibrated.Final[v] {
					t.Fatalf("%v/%v: Uniform cost model changed the layout", pipe, router)
				}
			}
			if calibrated.EstimatedSuccess <= 0 || calibrated.Makespan <= 0 {
				t.Errorf("%v/%v: fidelity block missing under Uniform+calibration", pipe, router)
			}
			if plain.EstimatedSuccess != 0 || plain.Makespan != 0 {
				t.Errorf("%v/%v: fidelity block present without a calibration", pipe, router)
			}
			if plain.CostModel != "uniform" || calibrated.CostModel != "uniform" {
				t.Errorf("%v/%v: cost model names %q/%q", pipe, router, plain.CostModel, calibrated.CostModel)
			}
		}
	}
}

// TestNoiseCostModelBeatsUniformOnCalibration: under the varied registry
// calibration, noise-aware compilation of a small benchmark must estimate at
// least as much success as the Uniform control arm (and the two must differ
// in routing for the comparison to mean anything).
func TestNoiseCostModelBeatsUniformOnCalibration(t *testing.T) {
	cal, err := device.ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchmarks.ByName("cnx_inplace-4")
	if err != nil {
		t.Fatal(err)
	}
	input, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	uniform, err := Compile(input, g, Options{
		Pipeline: TriosPipeline, Placement: PlaceGreedy, Seed: 1,
		Calibration: cal, CostModel: device.Uniform{},
	})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Compile(input, g, Options{
		Pipeline: TriosPipeline, Placement: PlaceGreedy, Seed: 1,
		Calibration: cal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if aware.EstimatedSuccess < uniform.EstimatedSuccess {
		t.Errorf("noise-aware success %v < uniform %v", aware.EstimatedSuccess, uniform.EstimatedSuccess)
	}
}

// TestCacheKeySeparatesCalibrationsAndCostModels pins the serving-layer
// correctness requirement: keys must distinguish (no calibration), (uniform
// + calibration), and (noise + calibration), and track calibration content.
func TestCacheKeySeparatesCalibrationsAndCostModels(t *testing.T) {
	cal, err := device.ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Pipeline: TriosPipeline, Seed: 1}
	k0 := base.CacheKey()

	uni := base
	uni.Calibration = cal
	uni.CostModel = device.Uniform{}
	k1 := uni.CacheKey()

	aware := base
	aware.Calibration = cal
	k2 := aware.CacheKey()

	other := base
	other.Calibration = cal.Clone()
	other.Calibration.SetEdgeError(0, 1, 0.3)
	k3 := other.CacheKey()

	keys := map[string]string{"plain": k0, "uniform+cal": k1, "noise+cal": k2, "noise+other-cal": k3}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("cache key collision between %s and %s", name, prev)
		}
		seen[k] = name
	}

	// Equal calibration content (distinct pointer) shares a key.
	clone := base
	clone.Calibration = cal.Clone()
	k4 := clone.CacheKey()
	if k4 != k2 {
		t.Error("equal calibration content should share a cache key")
	}
}

// TestCalibrationMismatchRejected: compiling for a device the calibration
// does not cover must fail up front, not deep inside a routing pass.
func TestCalibrationMismatchRejected(t *testing.T) {
	cal, err := device.ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchmarks.ByName("cnx_inplace-4")
	if err != nil {
		t.Fatal(err)
	}
	input, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(input, topo.Grid5x4(), Options{Calibration: cal}); err == nil {
		t.Error("calibration/device mismatch accepted")
	}
	if _, err := Compile(input, topo.Grid5x4(), Options{CostModel: device.NoiseFor(cal)}); err == nil {
		t.Error("cost-model/device mismatch accepted")
	}
}

// TestSharedNoiseModelMemoizesOracle: two compilations naming the same
// registry calibration share one weighted oracle per graph.
func TestSharedNoiseModelMemoizesOracle(t *testing.T) {
	cal, err := device.ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	o1 := device.NoiseFor(cal).Oracle(g)
	o2 := device.NoiseFor(cal).Oracle(g)
	if o1 != o2 {
		t.Fatal("NoiseFor does not share oracles across calls")
	}
	if math.IsInf(o1.Dist(0, 19), 1) {
		t.Fatal("oracle thinks the device is disconnected")
	}
}
