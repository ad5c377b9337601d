package compiler

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/topo"
)

func TestOptimizeOptionPreservesSemantics(t *testing.T) {
	g := topo.Grid(2, 3)
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 5; trial++ {
		c := circuit.New(5)
		// Inject redundancy the optimizer can exploit.
		for i := 0; i < 12; i++ {
			p := rng.Perm(5)
			c.CX(p[0], p[1])
			if rng.Float64() < 0.5 {
				c.CX(p[0], p[1])
			}
			c.CCX(p[0], p[1], p[2])
			if rng.Float64() < 0.5 {
				c.CCX(p[0], p[1], p[2])
			}
		}
		for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
			res, err := Compile(c, g, Options{Pipeline: pipe, Optimize: true, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			verifyCompiled(t, res)
		}
	}
}

func TestOptimizeNeverIncreasesGateCount(t *testing.T) {
	g := topo.Johannesburg()
	c := circuit.New(6)
	rng := rand.New(rand.NewSource(102))
	for i := 0; i < 20; i++ {
		p := rng.Perm(6)
		c.CCX(p[0], p[1], p[2])
		c.CCX(p[0], p[1], p[2]) // immediate double: pure redundancy
	}
	plain, err := Compile(c, g, Options{Pipeline: TriosPipeline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compile(c, g, Options{Pipeline: TriosPipeline, Seed: 1, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.TwoQubitGates() > plain.TwoQubitGates() {
		t.Errorf("optimizer increased gates: %d vs %d", opt.TwoQubitGates(), plain.TwoQubitGates())
	}
	// All the doubled Toffolis should vanish before routing.
	if opt.TwoQubitGates() != 0 {
		t.Errorf("fully redundant circuit compiled to %d two-qubit gates", opt.TwoQubitGates())
	}
}
