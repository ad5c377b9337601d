package route

import (
	"math/rand"
	"reflect"
	"testing"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// randomRoutable builds a random circuit of 1q/2q gates (plus CCXs when
// trios is set) that both routers accept.
func randomRoutable(n, gates int, trios bool, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch k := rng.Intn(10); {
		case k < 4:
			c.H(rng.Intn(n))
		case k < 8:
			a, b := rng.Intn(n), rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.CX(a, b)
		default:
			if trios && n >= 3 {
				q := rng.Perm(n)
				c.CCX(q[0], q[1], q[2])
			} else {
				c.RZ(0.5, rng.Intn(n))
			}
		}
	}
	return c
}

// TestSessionWindowedMatchesRoute is the core streaming invariant at the
// router level: feeding a circuit through a session in windows of any size,
// draining between windows, yields exactly the gates, final layout, and
// swap count of a monolithic Route call (same seed, so the stochastic
// tie-break RNG must consume the identical stream). It covers every router
// with a session: Baseline and Trios.
func TestSessionWindowedMatchesRoute(t *testing.T) {
	type sessionRouter interface {
		Router
		Begin(*topo.Graph, *layout.Layout) (*Session, error)
	}
	routers := []struct {
		name  string
		trios bool
		r     sessionRouter
	}{
		{"baseline", false, &Baseline{Seed: 3}},
		{"trios", true, &Trios{Seed: 3}},
	}
	graphs := []*topo.Graph{topo.Line(7), topo.Ring(7), topo.Grid(2, 4)}
	for _, g := range graphs {
		n := g.NumQubits()
		for _, rt := range routers {
			rng := rand.New(rand.NewSource(7))
			c := randomRoutable(n, 200, rt.trios, rng)
			init := layout.Random(n, rng)

			mono, err := rt.r.Route(c, g, init)
			if err != nil {
				t.Fatalf("Route: %v", err)
			}

			for _, window := range []int{1, 7, 64, len(c.Gates) + 10} {
				ss, err := rt.r.Begin(g, init)
				if err != nil {
					t.Fatalf("Begin: %v", err)
				}
				var got []circuit.Gate
				for lo := 0; lo < len(c.Gates); lo += window {
					hi := lo + window
					if hi > len(c.Gates) {
						hi = len(c.Gates)
					}
					if err := ss.Feed(c.Gates[lo:hi]); err != nil {
						t.Fatalf("Feed: %v", err)
					}
					got = ss.Drain(got)
				}
				res := ss.Finish()
				if len(res.Circuit.Gates) != 0 {
					t.Fatalf("drained session still holds %d gates", len(res.Circuit.Gates))
				}
				if !reflect.DeepEqual(got, mono.Circuit.Gates) {
					t.Fatalf("%v %s window=%d: windowed gates diverge from Route (%d vs %d gates)",
						g, rt.name, window, len(got), len(mono.Circuit.Gates))
				}
				if res.SwapsAdded != mono.SwapsAdded {
					t.Fatalf("%s window=%d: swaps %d != %d", rt.name, window, res.SwapsAdded, mono.SwapsAdded)
				}
				for v := 0; v < n; v++ {
					if res.Final.Phys(v) != mono.Final.Phys(v) {
						t.Fatalf("%s window=%d: final layout diverges at virtual %d", rt.name, window, v)
					}
				}
			}
		}
	}
}

func TestSessionErrorIsSticky(t *testing.T) {
	g := topo.Line(5)
	ss, err := (&Baseline{}).Begin(g, layout.Identity(5))
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	bad := circuit.New(5)
	bad.CCX(0, 1, 2) // baseline cannot route 3q gates
	if err := ss.Feed(bad.Gates); err == nil {
		t.Fatal("Feed accepted a 3-qubit gate on the baseline router")
	}
	ok := circuit.New(5)
	ok.H(0)
	if err := ss.Feed(ok.Gates); err == nil {
		t.Fatal("session not dead after an error")
	}
}
