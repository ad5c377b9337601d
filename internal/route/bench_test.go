package route

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

func benchTrioCircuit(n, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		p := rng.Perm(n)
		if rng.Intn(2) == 0 {
			c.CX(p[0], p[1])
		} else {
			c.CCX(p[0], p[1], p[2])
		}
	}
	return c
}

func BenchmarkBaselineRouterJohannesburg(b *testing.B) {
	g := topo.Johannesburg()
	rng := rand.New(rand.NewSource(1))
	c := circuit.New(20)
	for i := 0; i < 100; i++ {
		p := rng.Perm(20)
		c.CX(p[0], p[1])
	}
	init := layout.Identity(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&Baseline{Seed: int64(i)}).Route(c, g, init); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriosRouterJohannesburg(b *testing.B) {
	g := topo.Johannesburg()
	c := benchTrioCircuit(20, 100, 2)
	init := layout.Identity(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&Trios{Seed: int64(i)}).Route(c, g, init); err != nil {
			b.Fatal(err)
		}
	}
}

// hcxCircuit is a random 20-qubit program of h and cx gates.
func hcxCircuit(gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(20)
	for i := 0; i < gates; i++ {
		p := rng.Perm(20)
		if rng.Intn(2) == 0 {
			c.H(p[0])
		} else {
			c.CX(p[0], p[1])
		}
	}
	return c
}

// benchLayerRouter routes 100 random CNOTs, then random h/cx programs of
// 16k and 64k gates: the layer routers' time must grow linearly with the
// program.
func benchLayerRouter(b *testing.B, seed int64, router func(seed int64) Router) {
	g := topo.Johannesburg()
	rng := rand.New(rand.NewSource(seed))
	cx := circuit.New(20)
	for i := 0; i < 100; i++ {
		p := rng.Perm(20)
		cx.CX(p[0], p[1])
	}
	init := layout.Identity(20)
	for _, in := range []struct {
		name string
		c    *circuit.Circuit
	}{{"cx100", cx}, {"hcx16k", hcxCircuit(16<<10, 1)}, {"hcx64k", hcxCircuit(64<<10, 1)}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := router(int64(i)).Route(in.c, g, init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStochasticRouterJohannesburg(b *testing.B) {
	benchLayerRouter(b, 3, func(seed int64) Router { return &Stochastic{Seed: seed} })
}

func BenchmarkLookaheadRouterJohannesburg(b *testing.B) {
	benchLayerRouter(b, 4, func(seed int64) Router { return &Lookahead{Seed: seed} })
}
