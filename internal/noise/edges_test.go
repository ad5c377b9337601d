package noise

import (
	"math"
	"testing"

	"trios/internal/circuit"
	"trios/internal/topo"
)

func TestUniformEdgeMap(t *testing.T) {
	g := topo.Line(4)
	m := UniformEdgeMap(g, 0.01)
	e, err := m.Error(1, 2)
	if err != nil || e != 0.01 {
		t.Errorf("error = %v, %v", e, err)
	}
	if _, err := m.Error(0, 2); err == nil {
		t.Error("expected error for non-edge")
	}
	// Symmetric lookup.
	e2, _ := m.Error(2, 1)
	if e2 != 0.01 {
		t.Error("edge lookup not symmetric")
	}
}

func TestSyntheticCalibrationSeeded(t *testing.T) {
	g := topo.Johannesburg()
	a := SyntheticCalibration(g, 0.01, 0.5, 3, 42)
	b := SyntheticCalibration(g, 0.01, 0.5, 3, 42)
	for _, e := range g.Edges() {
		ea, _ := a.Error(e[0], e[1])
		eb, _ := b.Error(e[0], e[1])
		if ea != eb {
			t.Fatal("same seed gave different calibration")
		}
		if ea <= 0 || ea > 0.5 {
			t.Fatalf("edge error %v out of range", ea)
		}
	}
	worst := 0.0
	for _, e := range g.Edges() {
		ea, _ := a.Error(e[0], e[1])
		worst = math.Max(worst, ea)
	}
	if worst <= 0.01 {
		t.Error("hot edges should exceed the mean")
	}
}

func TestSuccessProbabilityEdgesMatchesUniform(t *testing.T) {
	// With a uniform edge map, the per-edge estimate equals the global one.
	g := topo.Line(3)
	p := Johannesburg0819()
	p.ReadoutError = 0
	m := UniformEdgeMap(g, p.TwoQubitError)
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.SWAP(0, 1)
	global, err := SuccessProbability(c, p)
	if err != nil {
		t.Fatal(err)
	}
	perEdge, err := SuccessProbabilityEdges(c, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(global-perEdge) > 1e-12 {
		t.Errorf("global %v vs per-edge %v", global, perEdge)
	}
}

func TestSuccessProbabilityEdgesPenalizesHotEdge(t *testing.T) {
	g := topo.Line(3)
	p := Johannesburg0819()
	m := UniformEdgeMap(g, 0.01)
	c := circuit.New(3)
	c.CX(0, 1)
	before, err := SuccessProbabilityEdges(c, p, m)
	if err != nil {
		t.Fatal(err)
	}
	m.SetError(0, 1, 0.3)
	after, err := SuccessProbabilityEdges(c, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("hot edge should lower success: %v vs %v", before, after)
	}
}

func TestSuccessProbabilityEdgesRejectsNonCompiled(t *testing.T) {
	g := topo.Line(3)
	m := UniformEdgeMap(g, 0.01)
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	if _, err := SuccessProbabilityEdges(c, Johannesburg0819(), m); err == nil {
		t.Error("expected error for undecomposed toffoli")
	}
	c2 := circuit.New(3)
	c2.CX(0, 2) // not a coupling
	if _, err := SuccessProbabilityEdges(c2, Johannesburg0819(), m); err == nil {
		t.Error("expected error for off-coupling cx")
	}
}
