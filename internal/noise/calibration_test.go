package noise

import (
	"math"
	"testing"

	"trios/internal/circuit"
	"trios/internal/device"
	"trios/internal/sched"
	"trios/internal/topo"
)

// ParamsFrom reduces a calibration to the scalar device-average model the
// paper's §2.6 closed form uses. For a flat calibration the reduction is
// lossless: ParamsFrom(device.JohannesburgFlat()) equals Johannesburg0819
// (plus the chosen coherence mode).
func ParamsFrom(cal *device.Calibration, mode CoherenceMode) Params {
	return Params{
		T1:            cal.MeanT1(),
		T2:            cal.MeanT2(),
		Coherence:     mode,
		Times:         cal.Times,
		OneQubitError: mean(cal.OneQubitError),
		TwoQubitError: cal.MeanTwoQubitError(),
		ReadoutError:  mean(cal.ReadoutError),
	}
}

// EdgeMapFrom adapts a calibration's per-coupling error table to the EdgeMap
// form the per-edge evaluation helpers take.
func EdgeMapFrom(cal *device.Calibration) *EdgeMap {
	m := &EdgeMap{name: cal.Name, errs: make(map[[2]int]float64, len(cal.TwoQubitError))}
	for k, v := range cal.TwoQubitError {
		m.errs[k] = v
	}
	return m
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// smallCompiled returns a compiled-shape circuit legal on Johannesburg.
func smallCompiled() *circuit.Circuit {
	c := circuit.New(4)
	c.U2(0, math.Pi, 0).CX(0, 1).CX(1, 2).SWAP(2, 3).U1(math.Pi/4, 3).CX(2, 3)
	c.Measure(0).Measure(1)
	return c
}

// TestParamsFromFlatMatchesJohannesburg0819 pins the collapse of the
// GateTimes/EdgeMap/Params split: reducing the flat registry calibration
// reproduces the hand-written constants model exactly.
func TestParamsFromFlatMatchesJohannesburg0819(t *testing.T) {
	got := ParamsFrom(device.JohannesburgFlat(), CoherenceProgram)
	want := Johannesburg0819()
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if !near(got.T1, want.T1) || !near(got.T2, want.T2) ||
		!near(got.OneQubitError, want.OneQubitError) ||
		!near(got.TwoQubitError, want.TwoQubitError) ||
		!near(got.ReadoutError, want.ReadoutError) ||
		got.Times != want.Times {
		t.Errorf("ParamsFrom(flat) = %+v, want %+v", got, want)
	}
}

// TestSuccessWithFlatCalibrationMatchesScalarModel: under a flat calibration
// the per-edge/per-qubit closed form must agree with the legacy scalar
// SuccessProbability for both coherence modes.
func TestSuccessWithFlatCalibrationMatchesScalarModel(t *testing.T) {
	cal := device.JohannesburgFlat()
	c := smallCompiled()
	for _, mode := range []CoherenceMode{CoherenceProgram, CoherencePerQubit} {
		p := ParamsFrom(cal, mode)
		want, err := SuccessProbability(c, p)
		if err != nil {
			t.Fatal(err)
		}
		got, makespan, err := SuccessWithCalibration(c, cal, mode)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("mode %v: calibrated %v != scalar %v", mode, got, want)
		}
		clock, err := sched.Run(c, cal.Times)
		if err != nil {
			t.Fatal(err)
		}
		if d := clock.Makespan(); makespan != d {
			t.Errorf("makespan %v != sched makespan %v", makespan, d)
		}
	}
}

// TestSuccessWithCalibrationMatchesEdgeModel: with varied per-edge data and
// flat per-qubit data, the calibrated form must agree with the legacy
// SuccessProbabilityEdges + EdgeMapFrom adapter.
func TestSuccessWithCalibrationMatchesEdgeModel(t *testing.T) {
	cal := device.JohannesburgFlat().Clone()
	cal.SetEdgeError(0, 1, 0.08)
	cal.SetEdgeError(2, 3, 0.21)
	c := smallCompiled()
	p := ParamsFrom(cal, CoherencePerQubit)
	want, err := SuccessProbabilityEdges(c, p, EdgeMapFrom(cal))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := SuccessWithCalibration(c, cal, CoherencePerQubit)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("calibrated %v != per-edge %v", got, want)
	}
}

// TestSuccessWithCalibrationPerQubitData: per-qubit variation must actually
// be charged per qubit — degrading only an unused qubit changes nothing,
// degrading a used one lowers the estimate.
func TestSuccessWithCalibrationPerQubitData(t *testing.T) {
	base := device.JohannesburgFlat()
	c := smallCompiled()
	p0, _, err := SuccessWithCalibration(c, base, CoherencePerQubit)
	if err != nil {
		t.Fatal(err)
	}

	unused := base.Clone()
	unused.ReadoutError[19] = 0.4
	unused.T1[19] = 1
	p1, _, err := SuccessWithCalibration(c, unused, CoherencePerQubit)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p0 {
		t.Errorf("degrading an unused qubit changed the estimate: %v != %v", p1, p0)
	}

	used := base.Clone()
	used.ReadoutError[0] = 0.4
	p2, _, err := SuccessWithCalibration(c, used, CoherencePerQubit)
	if err != nil {
		t.Fatal(err)
	}
	if p2 >= p0 {
		t.Errorf("degrading a measured qubit did not lower the estimate: %v >= %v", p2, p0)
	}

	slow := base.Clone()
	slow.T1[2] = 5
	p3, _, err := SuccessWithCalibration(c, slow, CoherencePerQubit)
	if err != nil {
		t.Fatal(err)
	}
	if p3 >= p0 {
		t.Errorf("degrading an active qubit's T1 did not lower the estimate: %v >= %v", p3, p0)
	}
}

// TestSuccessWithCalibrationRejectsUnfit rejects uncompiled gates and
// uncovered couplings.
func TestSuccessWithCalibrationRejectsUnfit(t *testing.T) {
	cal := device.JohannesburgFlat()
	ccx := circuit.New(3)
	ccx.CCX(0, 1, 2)
	if _, _, err := SuccessWithCalibration(ccx, cal, CoherenceProgram); err == nil {
		t.Error("accepted an uncompiled Toffoli")
	}
	far := circuit.New(14)
	far.CX(0, 13) // not a Johannesburg coupling
	if _, _, err := SuccessWithCalibration(far, cal, CoherenceProgram); err == nil {
		t.Error("accepted a CX on an uncalibrated coupling")
	}
	big := circuit.New(25)
	big.CX(0, 1)
	if _, _, err := SuccessWithCalibration(big, cal, CoherenceProgram); err == nil {
		t.Error("accepted a circuit larger than the calibration")
	}
}

// TestEdgeMapFrom checks the adapter exposes exactly the calibration's table.
func TestEdgeMapFrom(t *testing.T) {
	cal, err := device.ByName("johannesburg-0819")
	if err != nil {
		t.Fatal(err)
	}
	m := EdgeMapFrom(cal)
	for _, e := range topo.Johannesburg().Edges() {
		want, err := cal.EdgeError(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Error(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("edge (%d,%d): %v != %v", e[0], e[1], got, want)
		}
	}
	if _, err := m.Error(0, 13); err == nil {
		t.Error("adapter invented a coupling")
	}
}
