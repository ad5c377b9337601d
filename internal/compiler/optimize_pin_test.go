package compiler

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/topo"
)

// legacyCompiledTwoQubit freezes the compiled two-qubit counts the
// pre-rewrite optimizer (the cancel loop behind the former legacy optimizer
// setting) reached in TestSaturateOptimizerNeverWorseThanLegacy: one row per
// trial, conventional then Trios pipeline.
var legacyCompiledTwoQubit = [6][2]int{
	{205, 164},
	{122, 105},
	{164, 116},
	{210, 141},
	{191, 140},
	{232, 177},
}

// TestSaturateOptimizerNeverWorseThanLegacy compiles redundancy-heavy random
// circuits and asserts the saturating engine's compiled two-qubit count never
// exceeds the frozen count of the legacy loop — the engine's rule table
// strictly extends what the legacy optimizer could cancel.
func TestSaturateOptimizerNeverWorseThanLegacy(t *testing.T) {
	g := topo.Grid(2, 3)
	rng := rand.New(rand.NewSource(77))
	for trial, legacy := range legacyCompiledTwoQubit {
		c := circuit.New(5)
		for i := 0; i < 15; i++ {
			p := rng.Perm(5)
			c.CX(p[0], p[1])
			if rng.Float64() < 0.5 {
				c.CX(p[0], p[1])
			}
			c.H(p[2])
			c.CX(p[3], p[2])
			if rng.Float64() < 0.5 {
				c.H(p[2]) // h·cx·h conjugation fodder
			}
			c.CCX(p[0], p[1], p[2])
			if rng.Float64() < 0.5 {
				c.CCX(p[0], p[1], p[2])
			}
		}
		for i, pipe := range []Pipeline{Conventional, TriosPipeline} {
			sat, err := Compile(c, g, Options{Pipeline: pipe, Optimize: true, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			verifyCompiled(t, sat)
			if sat.TwoQubitGates() > legacy[i] {
				t.Errorf("trial %d/%v: saturate compiled to %d two-qubit gates, legacy to %d",
					trial, pipe, sat.TwoQubitGates(), legacy[i])
			}
		}
	}
}
