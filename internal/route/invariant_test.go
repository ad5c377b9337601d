package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// replaySwaps applies the SWAP gates of a routed circuit to a copy of the
// initial layout; the result must equal the router's reported final layout.
// This pins the core bookkeeping invariant every router must maintain.
func replaySwaps(t *testing.T, routed *circuit.Circuit, init *layout.Layout, final *layout.Layout) {
	t.Helper()
	l := init.Copy()
	for _, g := range routed.Gates {
		if g.Name == circuit.SWAP {
			l.SwapPhys(g.Qubits[0], g.Qubits[1])
		}
	}
	for v := 0; v < l.Size(); v++ {
		if l.Phys(v) != final.Phys(v) {
			t.Fatalf("virtual %d: replayed phys %d != reported final %d", v, l.Phys(v), final.Phys(v))
		}
	}
}

func routerUnderTest(name string, seed int64) Router {
	switch name {
	case "baseline":
		return &Baseline{Seed: seed}
	case "trios":
		return &Trios{Seed: seed}
	case "stochastic":
		return &Stochastic{Seed: seed, TrioAware: true}
	}
	panic("unknown router")
}

func TestSwapReplayInvariantAllRouters(t *testing.T) {
	names := []string{"baseline", "trios", "stochastic"}
	graphs := []*topo.Graph{topo.Johannesburg(), topo.Line20(), topo.Grid5x4(), topo.Clusters5x4()}
	rng := rand.New(rand.NewSource(3))
	for _, name := range names {
		for _, g := range graphs {
			c := circuit.New(20)
			for i := 0; i < 30; i++ {
				p := rng.Perm(20)
				if name == "baseline" || rng.Intn(2) == 0 {
					c.CX(p[0], p[1])
				} else {
					c.CCX(p[0], p[1], p[2])
				}
			}
			init := layout.Random(20, rng)
			res, err := routerUnderTest(name, 9).Route(c, g, init)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, g.Name(), err)
			}
			replaySwaps(t, res.Circuit, init, res.Final)
			// SwapsAdded must match the number of emitted SWAP gates.
			if got := res.Circuit.CountName(circuit.SWAP); got != res.SwapsAdded {
				t.Fatalf("%s on %s: counted %d swaps, reported %d", name, g.Name(), got, res.SwapsAdded)
			}
		}
	}
}

// Property: routing never mutates the caller's initial layout.
func TestRoutersDoNotMutateInitialLayout(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topo.Grid(3, 3)
		c := circuit.New(9)
		for i := 0; i < 10; i++ {
			p := rng.Perm(9)
			c.CCX(p[0], p[1], p[2])
		}
		init := layout.Random(9, rng)
		snapshot := init.Copy()
		if _, err := (&Trios{Seed: seed}).Route(c, g, init); err != nil {
			return false
		}
		for v := 0; v < 9; v++ {
			if init.Phys(v) != snapshot.Phys(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: gate count of the routed circuit equals input gates plus swaps
// (routers insert SWAPs but never drop or duplicate program gates).
func TestRoutersPreserveGateCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topo.Johannesburg()
		c := circuit.New(20)
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			p := rng.Perm(20)
			switch rng.Intn(3) {
			case 0:
				c.H(p[0])
			case 1:
				c.CX(p[0], p[1])
			default:
				c.CCX(p[0], p[1], p[2])
			}
		}
		init := layout.Random(20, rng)
		res, err := (&Trios{Seed: seed}).Route(c, g, init)
		if err != nil {
			return false
		}
		return len(res.Circuit.Gates) == len(c.Gates)+res.SwapsAdded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
