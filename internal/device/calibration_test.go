package device

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"trios/internal/sched"
	"trios/internal/topo"
)

func TestFlatMatchesJohannesburgConstants(t *testing.T) {
	c := JohannesburgFlat()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Qubits != 20 {
		t.Fatalf("qubits = %d", c.Qubits)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !near(c.MeanT1(), 70.87) || !near(c.MeanT2(), 72.72) {
		t.Errorf("mean T1/T2 = %v/%v", c.MeanT1(), c.MeanT2())
	}
	if !near(mean(c.OneQubitError), 0.0004) || !near(c.MeanTwoQubitError(), 0.0147) || !near(mean(c.ReadoutError), 0.03) {
		t.Errorf("mean errors = %v/%v/%v", mean(c.OneQubitError), c.MeanTwoQubitError(), mean(c.ReadoutError))
	}
	if c.Times != sched.JohannesburgTimes() {
		t.Errorf("times = %+v", c.Times)
	}
	if err := c.CheckGraph(topo.Johannesburg()); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadData(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *Calibration)
	}{
		{"nan edge error", func(c *Calibration) { c.SetEdgeError(0, 1, math.NaN()) }},
		{"negative edge error", func(c *Calibration) { c.SetEdgeError(0, 1, -0.1) }},
		{"edge error of 1", func(c *Calibration) { c.SetEdgeError(0, 1, 1.0) }},
		{"inf edge error", func(c *Calibration) { c.SetEdgeError(0, 1, math.Inf(1)) }},
		{"edge outside device", func(c *Calibration) { c.TwoQubitError[[2]int{0, 99}] = 0.01 }},
		{"self edge", func(c *Calibration) { c.TwoQubitError[[2]int{3, 3}] = 0.01 }},
		{"negative T1", func(c *Calibration) { c.T1[4] = -1 }},
		{"zero T2", func(c *Calibration) { c.T2[0] = 0 }},
		{"nan readout", func(c *Calibration) { c.ReadoutError[7] = math.NaN() }},
		{"1q error of 1.5", func(c *Calibration) { c.OneQubitError[2] = 1.5 }},
		{"short T1 array", func(c *Calibration) { c.T1 = c.T1[:10] }},
		{"zero qubits", func(c *Calibration) { c.Qubits = 0 }},
		{"bad gate time", func(c *Calibration) { c.Times.TwoQubit = 0 }},
		{"nan measure time", func(c *Calibration) { c.Times.Measure = math.NaN() }},
	}
	for _, tc := range cases {
		c := JohannesburgFlat().Clone()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad calibration", tc.name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(c, back) {
			t.Errorf("%s: round trip changed the calibration", name)
		}
		if c.Digest() != back.Digest() {
			t.Errorf("%s: digest changed across round trip", name)
		}
		// Round trip twice: serialization is a fixpoint.
		data2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: canonical JSON not stable", name)
		}
	}
}

func TestParseRejectsDuplicateEdges(t *testing.T) {
	c := Flat("dup", topo.Line(3), 70, 70, 0.001, 0.01, 0.02, sched.JohannesburgTimes())
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a reversed duplicate of edge (0,1).
	s := strings.Replace(string(data), `[{"a":0,"b":1,"error":0.01}`,
		`[{"a":0,"b":1,"error":0.01},{"a":1,"b":0,"error":0.02}`, 1)
	if s == string(data) {
		t.Fatal("test setup: edge entry not found")
	}
	if _, err := Parse([]byte(s)); err == nil {
		t.Error("Parse accepted duplicate (reversed) edge entries")
	}
}

func TestDigestSeparatesCalibrations(t *testing.T) {
	a := JohannesburgFlat()
	b := a.Clone()
	if a.Digest() != b.Digest() {
		t.Fatal("clone digest differs")
	}
	b.SetEdgeError(0, 1, 0.2)
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to edge error change")
	}
	c := a.Clone()
	c.Name = "other"
	if a.Digest() == c.Digest() {
		t.Fatal("digest blind to name change")
	}
}

func TestImproved(t *testing.T) {
	c := JohannesburgFlat()
	i := c.Improved(20)
	if err := i.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := i.MeanTwoQubitError(); math.Abs(got-0.0147/20) > 1e-12 {
		t.Errorf("improved 2q error = %v", got)
	}
	if got := i.MeanT1(); math.Abs(got-70.87*20) > 1e-9 {
		t.Errorf("improved T1 = %v", got)
	}
	// The original is untouched.
	if math.Abs(c.MeanTwoQubitError()-0.0147) > 1e-12 {
		t.Error("Improved mutated the receiver")
	}
}

func TestRouteWeightOrdering(t *testing.T) {
	c := JohannesburgFlat().Clone()
	c.SetEdgeError(0, 1, 0.3)
	w := c.RouteWeight()
	if w(0, 1) <= w(1, 2) {
		t.Error("worse edge should weigh more")
	}
	if w(1, 0) != w(0, 1) {
		t.Error("weight should be symmetric")
	}
	if !math.IsInf(w(0, 13), 1) {
		t.Error("non-coupling should weigh +Inf")
	}
}

func TestCheckGraphMismatch(t *testing.T) {
	c := JohannesburgFlat()
	if err := c.CheckGraph(topo.Line(20)); err == nil {
		t.Error("CheckGraph accepted a device with uncovered couplings")
	}
	if err := c.CheckGraph(topo.Line(7)); err == nil {
		t.Error("CheckGraph accepted a size mismatch")
	}
}
