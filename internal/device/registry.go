package device

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"trios/internal/sched"
	"trios/internal/topo"
)

// Johannesburg average calibration values, §5.2 (8/19/2020): the constants
// noise.Johannesburg0819 and sched.JohannesburgTimes carry, now in one place.
const (
	jhbT1            = 70.87
	jhbT2            = 72.72
	jhbOneQubitError = 0.0004
	jhbTwoQubitError = 0.0147
	jhbReadoutError  = 0.03
)

// Flat builds a uniform calibration: every qubit and coupling of g gets the
// same rates. It is how device averages (all the paper reports) become a
// Calibration.
func Flat(name string, g *topo.Graph, t1, t2, e1, e2, readout float64, times sched.GateTimes) *Calibration {
	n := g.NumQubits()
	c := &Calibration{
		Name:          name,
		Qubits:        n,
		T1:            fill(n, t1),
		T2:            fill(n, t2),
		OneQubitError: fill(n, e1),
		ReadoutError:  fill(n, readout),
		TwoQubitError: make(map[[2]int]float64, g.NumEdges()),
		Times:         times,
	}
	for _, e := range g.Edges() {
		c.TwoQubitError[e] = e2
	}
	return c
}

func fill(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// JohannesburgFlat returns the device-average Johannesburg calibration: the
// paper's reported 8/19/2020 constants applied uniformly. Success estimates
// under it reproduce the scalar noise.Johannesburg0819 model exactly.
func JohannesburgFlat() *Calibration {
	return Flat("johannesburg-flat", topo.Johannesburg(),
		jhbT1, jhbT2, jhbOneQubitError, jhbTwoQubitError, jhbReadoutError,
		sched.JohannesburgTimes())
}

// Synthetic builds a daily-calibration-shaped characterization of g around
// the Johannesburg averages: per-edge CNOT errors drawn with a log-normal
// spread (sigma in log-space) and hotEdges randomly chosen couplings
// degraded 10x — the heavy-tailed, order-of-magnitude shape IBM's published
// daily two-qubit data exhibits — while per-qubit rates and coherence times
// get proportionally tighter spreads (half and a quarter of sigma), matching
// how much less those quantities wander day to day. Deterministic in seed.
func Synthetic(name string, g *topo.Graph, sigma float64, hotEdges int, seed int64) *Calibration {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumQubits()
	c := &Calibration{
		Name:          name,
		Qubits:        n,
		T1:            make([]float64, n),
		T2:            make([]float64, n),
		OneQubitError: make([]float64, n),
		ReadoutError:  make([]float64, n),
		TwoQubitError: make(map[[2]int]float64, g.NumEdges()),
		Times:         sched.JohannesburgTimes(),
	}
	spread := func(mean, s float64) float64 {
		return mean * math.Exp(s*rng.NormFloat64())
	}
	clampRate := func(v float64) float64 {
		if v > 0.5 {
			return 0.5
		}
		return v
	}
	for q := 0; q < n; q++ {
		c.T1[q] = spread(jhbT1, sigma/4)
		c.T2[q] = spread(jhbT2, sigma/4)
		c.OneQubitError[q] = clampRate(spread(jhbOneQubitError, sigma/2))
		c.ReadoutError[q] = clampRate(spread(jhbReadoutError, sigma/2))
	}
	edges := g.Edges()
	for _, e := range edges {
		c.TwoQubitError[e] = clampRate(spread(jhbTwoQubitError, sigma))
	}
	for i := 0; i < hotEdges && len(edges) > 0; i++ {
		e := edges[rng.Intn(len(edges))]
		c.TwoQubitError[e] = clampRate(c.TwoQubitError[e] * 10)
	}
	return c
}

// ---- Registry ----

// registry maps addressable calibration names to constructors, mirroring the
// topo device registry: the trios -calibration flag, the triosd wire
// protocol, and GET /v1/calibrations all resolve against this one table.
//
// "johannesburg-0819" is the noise-aware default: the paper only reports
// device averages from IBM's 8/19/2020 calibration, so the per-edge spread is
// synthesized deterministically in the shape daily data takes (log-normal
// around the reported means with a few 10x-degraded couplers).
// "johannesburg-flat" applies the averages uniformly — under it, success
// estimates match the scalar noise.Johannesburg0819 model bit for bit. The
// *-synthetic entries characterize the paper's other three topologies the
// same way.
var registry = []struct {
	name   string
	device string
	build  func() *Calibration
}{
	{"johannesburg-0819", "johannesburg", func() *Calibration {
		return Synthetic("johannesburg-0819", topo.Johannesburg(), 0.55, 3, 819)
	}},
	{"johannesburg-flat", "johannesburg", JohannesburgFlat},
	{"grid-synthetic", "grid", func() *Calibration {
		return Synthetic("grid-synthetic", topo.Grid5x4(), 0.55, 3, 54)
	}},
	{"line-synthetic", "line", func() *Calibration {
		return Synthetic("line-synthetic", topo.Line20(), 0.55, 2, 20)
	}},
	{"clusters-synthetic", "clusters", func() *Calibration {
		return Synthetic("clusters-synthetic", topo.Clusters5x4(), 0.55, 3, 45)
	}},
}

var (
	regOnce  sync.Once
	regCache map[string]*Calibration
)

// builtins memoizes one shared read-only Calibration per registry entry, so
// every caller naming the same calibration also shares the per-graph cost
// tables its Noise model memoizes.
func builtins() map[string]*Calibration {
	regOnce.Do(func() {
		regCache = make(map[string]*Calibration, len(registry))
		for _, e := range registry {
			c := e.build()
			c.Device = e.device
			if err := c.Validate(); err != nil {
				panic(fmt.Sprintf("device: builtin calibration %s invalid: %v", e.name, err))
			}
			regCache[e.name] = c
		}
	})
	return regCache
}

// Names lists the registry's calibration names in display order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// ByName resolves a registry calibration. The returned Calibration is shared
// and read-only; Clone before mutating.
func ByName(name string) (*Calibration, error) {
	if c, ok := builtins()[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("device: unknown calibration %q (want %s)", name, strings.Join(Names(), ", "))
}

// ForDevice returns the registry's default calibration for a topology name
// ("johannesburg" -> "johannesburg-0819"), used by sweeps that characterize
// every paper topology.
func ForDevice(device string) (*Calibration, error) {
	for _, e := range registry {
		if e.device == device {
			return ByName(e.name)
		}
	}
	known := make([]string, 0, len(registry))
	seen := map[string]bool{}
	for _, e := range registry {
		if !seen[e.device] {
			seen[e.device] = true
			known = append(known, e.device)
		}
	}
	sort.Strings(known)
	return nil, fmt.Errorf("device: no calibration for device %q (have %s)", device, strings.Join(known, ", "))
}
