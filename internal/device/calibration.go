// Package device is the unified device model: one Calibration type carries
// everything the compiler knows about what a target machine costs — per-edge
// two-qubit error rates, per-qubit one-qubit and readout error rates, per-
// qubit coherence times, and gate durations — and one CostModel interface
// turns it into the edge weights that drive layout and routing.
//
// Before this package, that data was fragmented: noise.EdgeMap held per-edge
// errors, sched.GateTimes held durations, noise.Params held device averages,
// and layout kept a private distance matrix. A Calibration is the single
// source all of them now derive from, it round-trips through JSON so daily
// calibration data for arbitrary devices can be loaded from disk, and its
// Digest gives the serving layer a content address that keeps compile caches
// correct across calibrations.
package device

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"trios/internal/sched"
	"trios/internal/topo"
)

// Calibration is one day's characterization of a device: the §5.2 data the
// paper's noise-aware extension weights every compilation decision by.
// Error rates are probabilities in [0, 1); times are microseconds. A loaded
// or registry Calibration is read-only by convention — Clone before mutating.
type Calibration struct {
	// Name identifies the calibration (e.g. "johannesburg-0819").
	Name string
	// Device names the topology the calibration characterizes, using the
	// topo registry vocabulary ("johannesburg", "grid", ...). Empty means
	// unspecified; CheckGraph still enforces structural compatibility.
	Device string
	// Qubits is the device size; every per-qubit slice has this length.
	Qubits int
	// T1 and T2 are per-qubit relaxation and dephasing times (us).
	T1, T2 []float64
	// OneQubitError and ReadoutError are per-qubit gate/measurement error
	// probabilities.
	OneQubitError []float64
	ReadoutError  []float64
	// TwoQubitError maps couplings (low, high) to CNOT error probabilities.
	TwoQubitError map[[2]int]float64
	// Times are the device's gate durations.
	Times sched.GateTimes
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// EdgeError returns the two-qubit error rate of coupling (a, b).
func (c *Calibration) EdgeError(a, b int) (float64, error) {
	v, ok := c.TwoQubitError[edgeKey(a, b)]
	if !ok {
		return 0, fmt.Errorf("device: calibration %s has no entry for coupling (%d,%d)", c.Name, a, b)
	}
	return v, nil
}

// SetEdgeError overrides one coupling's error rate (test scenarios; registry
// calibrations are shared, Clone first).
func (c *Calibration) SetEdgeError(a, b int, e float64) {
	c.TwoQubitError[edgeKey(a, b)] = e
}

// RouteWeight adapts the calibration for noise-aware routing and placement:
// the weight of an edge is -log of its CNOT success rate, so a path's total
// weight is -log of its success probability and minimum-weight paths
// maximize success (§4). Unknown couplings weigh +Inf.
func (c *Calibration) RouteWeight() func(a, b int) float64 {
	return func(a, b int) float64 {
		e, ok := c.TwoQubitError[edgeKey(a, b)]
		if !ok || e >= 1 {
			return math.Inf(1)
		}
		return -math.Log(1 - e)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanT1 returns the device-average relaxation time.
func (c *Calibration) MeanT1() float64 { return mean(c.T1) }

// MeanT2 returns the device-average dephasing time.
func (c *Calibration) MeanT2() float64 { return mean(c.T2) }

// MeanTwoQubitError returns the device-average CNOT error.
func (c *Calibration) MeanTwoQubitError() float64 {
	if len(c.TwoQubitError) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range c.TwoQubitError {
		s += e
	}
	return s / float64(len(c.TwoQubitError))
}

// WorstEdgeError returns the largest per-coupling error rate.
func (c *Calibration) WorstEdgeError() float64 {
	worst := 0.0
	for _, e := range c.TwoQubitError {
		if e > worst {
			worst = e
		}
	}
	return worst
}

// Clone returns an independent deep copy.
func (c *Calibration) Clone() *Calibration {
	d := *c
	d.T1 = append([]float64(nil), c.T1...)
	d.T2 = append([]float64(nil), c.T2...)
	d.OneQubitError = append([]float64(nil), c.OneQubitError...)
	d.ReadoutError = append([]float64(nil), c.ReadoutError...)
	d.TwoQubitError = make(map[[2]int]float64, len(c.TwoQubitError))
	for k, v := range c.TwoQubitError {
		d.TwoQubitError[k] = v
	}
	return &d
}

// Improved returns a copy with every error rate divided by factor and every
// coherence time multiplied by it — the paper's "Nx improved" forward-looking
// setting (§5.2) generalized to per-qubit / per-edge data. Gate times are
// unchanged, matching noise.Params.Improved.
func (c *Calibration) Improved(factor float64) *Calibration {
	if factor <= 0 {
		panic("device: improvement factor must be positive")
	}
	d := c.Clone()
	d.Name = fmt.Sprintf("%s-improved-%g", c.Name, factor)
	for i := range d.T1 {
		d.T1[i] *= factor
		d.T2[i] *= factor
		d.OneQubitError[i] /= factor
		d.ReadoutError[i] /= factor
	}
	for k, v := range d.TwoQubitError {
		d.TwoQubitError[k] = v / factor
	}
	return d
}

// rate checks that v is a probability in [0, 1).
func rate(field string, i int, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v >= 1 {
		return fmt.Errorf("device: %s[%d] = %v outside [0,1)", field, i, v)
	}
	return nil
}

// positive checks that v is a finite positive quantity.
func positive(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("device: %s = %v must be positive and finite", field, v)
	}
	return nil
}

// Validate checks internal consistency: array lengths match Qubits, all error
// rates are finite probabilities below 1, coherence times and gate durations
// are finite and positive, and edges stay inside the device.
func (c *Calibration) Validate() error {
	if c.Qubits <= 0 {
		return fmt.Errorf("device: calibration %q has %d qubits", c.Name, c.Qubits)
	}
	for _, f := range []struct {
		name string
		xs   []float64
	}{
		{"t1_us", c.T1}, {"t2_us", c.T2},
		{"one_qubit_error", c.OneQubitError}, {"readout_error", c.ReadoutError},
	} {
		if len(f.xs) != c.Qubits {
			return fmt.Errorf("device: %s has %d entries, want %d", f.name, len(f.xs), c.Qubits)
		}
	}
	for i := 0; i < c.Qubits; i++ {
		if err := positive(fmt.Sprintf("t1_us[%d]", i), c.T1[i]); err != nil {
			return err
		}
		if err := positive(fmt.Sprintf("t2_us[%d]", i), c.T2[i]); err != nil {
			return err
		}
		if err := rate("one_qubit_error", i, c.OneQubitError[i]); err != nil {
			return err
		}
		if err := rate("readout_error", i, c.ReadoutError[i]); err != nil {
			return err
		}
	}
	for k, v := range c.TwoQubitError {
		a, b := k[0], k[1]
		if a < 0 || b < 0 || a >= c.Qubits || b >= c.Qubits || a >= b {
			return fmt.Errorf("device: two_qubit_error edge (%d,%d) invalid for %d qubits", a, b, c.Qubits)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v >= 1 {
			return fmt.Errorf("device: two_qubit_error[%d,%d] = %v outside [0,1)", a, b, v)
		}
	}
	if err := positive("gate_times_us.one_qubit", c.Times.OneQubit); err != nil {
		return err
	}
	if err := positive("gate_times_us.two_qubit", c.Times.TwoQubit); err != nil {
		return err
	}
	if err := positive("gate_times_us.measure", c.Times.Measure); err != nil {
		return err
	}
	return nil
}

// CheckGraph verifies the calibration covers a coupling graph: the qubit
// counts match and every edge of g has a two-qubit error entry. A calibration
// may carry entries for edges g lacks (a superset is harmless).
func (c *Calibration) CheckGraph(g *topo.Graph) error {
	if c.Qubits != g.NumQubits() {
		return fmt.Errorf("device: calibration %s covers %d qubits, device %s has %d",
			c.Name, c.Qubits, g.Name(), g.NumQubits())
	}
	for _, e := range g.Edges() {
		if _, ok := c.TwoQubitError[e]; !ok {
			return fmt.Errorf("device: calibration %s missing coupling (%d,%d) of %s",
				c.Name, e[0], e[1], g.Name())
		}
	}
	return nil
}

// ---- JSON wire form ----

// edgeJSON is one coupling's calibration entry on the wire.
type edgeJSON struct {
	A     int     `json:"a"`
	B     int     `json:"b"`
	Error float64 `json:"error"`
}

// timesJSON is sched.GateTimes with wire tags.
type timesJSON struct {
	OneQubit float64 `json:"one_qubit"`
	TwoQubit float64 `json:"two_qubit"`
	Measure  float64 `json:"measure"`
}

// calibrationJSON is the canonical wire form: edges sorted (low, high), so
// marshaling is deterministic and Digest is stable.
type calibrationJSON struct {
	Name          string     `json:"name"`
	Device        string     `json:"device,omitempty"`
	Qubits        int        `json:"qubits"`
	T1            []float64  `json:"t1_us"`
	T2            []float64  `json:"t2_us"`
	OneQubitError []float64  `json:"one_qubit_error"`
	ReadoutError  []float64  `json:"readout_error"`
	TwoQubitError []edgeJSON `json:"two_qubit_error"`
	Times         timesJSON  `json:"gate_times_us"`
}

// MarshalJSON emits the canonical wire form (sorted edge list).
func (c *Calibration) MarshalJSON() ([]byte, error) {
	edges := make([]edgeJSON, 0, len(c.TwoQubitError))
	for k, v := range c.TwoQubitError {
		edges = append(edges, edgeJSON{A: k[0], B: k[1], Error: v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	return json.Marshal(calibrationJSON{
		Name: c.Name, Device: c.Device, Qubits: c.Qubits,
		T1: c.T1, T2: c.T2,
		OneQubitError: c.OneQubitError, ReadoutError: c.ReadoutError,
		TwoQubitError: edges,
		Times:         timesJSON{c.Times.OneQubit, c.Times.TwoQubit, c.Times.Measure},
	})
}

// UnmarshalJSON parses the wire form without validating; use Parse (or call
// Validate) on untrusted input.
func (c *Calibration) UnmarshalJSON(data []byte) error {
	var w calibrationJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	c.Name, c.Device, c.Qubits = w.Name, w.Device, w.Qubits
	c.T1, c.T2 = w.T1, w.T2
	c.OneQubitError, c.ReadoutError = w.OneQubitError, w.ReadoutError
	c.TwoQubitError = make(map[[2]int]float64, len(w.TwoQubitError))
	for _, e := range w.TwoQubitError {
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		if _, dup := c.TwoQubitError[[2]int{a, b}]; dup {
			return fmt.Errorf("device: duplicate two_qubit_error entry for (%d,%d)", e.A, e.B)
		}
		c.TwoQubitError[[2]int{a, b}] = e.Error
	}
	c.Times = sched.GateTimes{OneQubit: w.Times.OneQubit, TwoQubit: w.Times.TwoQubit, Measure: w.Times.Measure}
	return nil
}

// Parse loads and validates a calibration from JSON.
func Parse(data []byte) (*Calibration, error) {
	c := &Calibration{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("device: parsing calibration: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadFile reads and validates a calibration JSON file.
func LoadFile(path string) (*Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Digest returns "sha256:<hex>" over the canonical JSON form: the content
// address the serving layer folds into compile cache keys so artifacts
// compiled under different calibrations can never alias.
func (c *Calibration) Digest() string {
	data, err := c.MarshalJSON()
	if err != nil {
		// Marshaling a well-formed calibration cannot fail; a digest must
		// never silently collide, so surface the impossible loudly.
		panic(fmt.Sprintf("device: marshaling calibration %s: %v", c.Name, err))
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}
