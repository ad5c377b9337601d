package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"trios/internal/benchmarks"
	"trios/internal/circuit"
	"trios/internal/device"
	"trios/internal/qasm"
)

// Inputs are generated from the workload seed alone and reach the daemon
// only as inline QASM. A serve request is a Table-1 circuit whose qubits
// are renamed by a seeded permutation of the 20-qubit device register, sent
// with the initial layout that undoes the renaming: the daemon sees a new
// program (so every content-addressed cache misses) that poses the device
// exactly the Table-1 grid problem under identity placement. The router
// seed is the replica index, so every workload seed compiles the same
// multiset of grid problems and the quality metrics are comparable across
// seeds, while request text and order differ per seed.

// registerQubits is the size of every paper topology.
const registerQubits = 20

// paperTopologies are the four devices of the paper's Figures 9-11, by
// their request names.
var paperTopologies = []string{"johannesburg", "grid", "line", "clusters"}

// compileReq is one POST /v1/compile request of a serve workload, with what
// the checks need to know about it.
type compileReq struct {
	Bench    string
	Topology string
	QASM     string // the relabelled input program
	Gates    int    // input gate count
	Body     []byte // the JSON request body
}

// wireRequest is the JSON body: the paper's Table-1 options (stochastic
// router, identity placement as undone relabelling) plus the topology's
// registry calibration under the uniform cost model, so routing matches the
// calibration-less Table-1 compile while every artifact still carries
// estimated_success.
type wireRequest struct {
	QASM          string `json:"qasm"`
	Topology      string `json:"topology"`
	Pipeline      string `json:"pipeline"`
	Router        string `json:"router"`
	Placement     string `json:"placement"`
	InitialLayout []int  `json:"initial_layout"`
	Seed          int64  `json:"seed"`
	Optimize      bool   `json:"optimize,omitempty"`
	Calibration   string `json:"calibration"`
	Cost          string `json:"cost"`
}

// bodies holds the Table-1 circuits once per process.
type bodies struct {
	names []string
	circs []*circuit.Circuit
}

func loadBodies() (*bodies, error) {
	b := &bodies{}
	for _, bm := range benchmarks.All() {
		c, err := bm.Build()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", bm.Name, err)
		}
		b.names = append(b.names, bm.Name)
		b.circs = append(b.circs, c)
	}
	return b, nil
}

// relabel renames c's qubits by a seeded permutation of the device
// register and returns the initial layout that undoes it: compiled with
// that layout, the relabelled program poses the device the same problem as
// the Table-1 circuit under identity placement, while its text (and so its
// content address) is new.
func relabel(c *circuit.Circuit, rng *rand.Rand) (*circuit.Circuit, []int) {
	perm := rng.Perm(registerQubits)
	layout := make([]int, registerQubits)
	for q, p := range perm {
		layout[p] = q
	}
	out := &circuit.Circuit{NumQubits: registerQubits, Gates: make([]circuit.Gate, len(c.Gates))}
	for i, g := range c.Gates {
		ng := g
		ng.Qubits = make([]int, len(g.Qubits))
		for j, q := range g.Qubits {
			ng.Qubits[j] = perm[q]
		}
		out.Gates[i] = ng
	}
	return out, layout
}

// newCompileReq draws a relabelling of body bi whose program is not yet in
// seen, and renders the request.
func (b *bodies) newCompileReq(rng *rand.Rand, seen map[string]bool, bi int, topology, pipeline string, optimize bool, seed int64) (compileReq, error) {
	var (
		c      *circuit.Circuit
		layout []int
		src    string
	)
	for src == "" || seen[src] {
		c, layout = relabel(b.circs[bi], rng)
		var err error
		if src, err = qasm.Emit(c); err != nil {
			return compileReq{}, err
		}
	}
	seen[src] = true
	cal, err := device.ForDevice(topology)
	if err != nil {
		return compileReq{}, err
	}
	body, err := json.Marshal(wireRequest{
		QASM: src, Topology: topology, Pipeline: pipeline, Router: "stochastic",
		Placement: "identity", InitialLayout: layout, Seed: seed,
		Optimize: optimize, Calibration: cal.Name, Cost: "uniform",
	})
	if err != nil {
		return compileReq{}, err
	}
	return compileReq{Bench: b.names[bi], Topology: topology, QASM: src, Gates: len(c.Gates), Body: body}, nil
}

// coldRequests is serve-cold's fixed request set: reps replicas of the 176
// (circuit x topology x pipeline x optimize) configurations, each replica
// in its own seeded order and routed with seed r+1, each request with its
// own relabelling, so no two requests share content and every one misses
// both the artifact cache and the front-pass cache. Keeping replicas
// contiguous makes any run of whole replicas the same mix of work.
func (b *bodies) coldRequests(seed int64, reps int) ([]compileReq, error) {
	rng := rand.New(rand.NewSource(seed))
	type cfg struct {
		bi       int
		topo     string
		pipeline string
		optimize bool
	}
	var cfgs []cfg
	for bi := range b.circs {
		for _, t := range paperTopologies {
			for _, p := range []string{"baseline", "trios"} {
				for _, o := range []bool{false, true} {
					cfgs = append(cfgs, cfg{bi, t, p, o})
				}
			}
		}
	}
	seen := make(map[string]bool, reps*len(cfgs))
	out := make([]compileReq, 0, reps*len(cfgs))
	for r := 0; r < reps; r++ {
		rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
		for _, c := range cfgs {
			req, err := b.newCompileReq(rng, seen, c.bi, c.topo, c.pipeline, c.optimize, int64(r+1))
			if err != nil {
				return nil, err
			}
			out = append(out, req)
		}
	}
	return out, nil
}

// gridCells is serve-warm's primed set: the 88 Table-1 grid cells (11
// circuits x 4 topologies x 2 pipelines, optimize off, router seed 1),
// each relabelled.
func (b *bodies) gridCells(seed int64) ([]compileReq, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var out []compileReq
	for bi := range b.circs {
		for _, t := range paperTopologies {
			for _, p := range []string{"baseline", "trios"} {
				r, err := b.newCompileReq(rng, seen, bi, t, p, false, 1)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// warmOrder is serve-warm's replay sequence: rounds passes over the cells,
// each pass in its own seeded order, so every seed replays each cell
// equally often.
func warmOrder(seed int64, cells, rounds int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	order := make([]int, 0, cells*rounds)
	for r := 0; r < rounds; r++ {
		order = append(order, rng.Perm(cells)...)
	}
	return order
}

// warmupRequests are the set-up compiles, one per paper topology: a fixed
// three-qubit Toffoli program that builds each device's graph, distance
// oracle and calibration tables in the daemon. Its 3-qubit register keeps
// it apart from every generated (20-qubit) input.
func warmupRequests() ([]compileReq, error) {
	c := circuit.New(3)
	c.H(2).CCX(0, 1, 2).CX(0, 1).CCX(1, 2, 0).T(0)
	src, err := qasm.Emit(c)
	if err != nil {
		return nil, err
	}
	var out []compileReq
	for _, t := range paperTopologies {
		cal, err := device.ForDevice(t)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(wireRequest{
			QASM: src, Topology: t, Pipeline: "trios", Router: "stochastic",
			Placement: "identity", Seed: 1, Optimize: true, Calibration: cal.Name, Cost: "uniform",
		})
		if err != nil {
			return nil, err
		}
		out = append(out, compileReq{Bench: "warmup", Topology: t, QASM: src, Gates: len(c.Gates), Body: body})
	}
	return out, nil
}

// streamProgram is one POST /v1/compile/stream request: relabelled Table-1
// bodies concatenated on the 20-qubit register until at least minGates.
type streamProgram struct {
	Pipeline string
	Seed     int64
	QASM     []byte
	Gates    int
}

func (b *bodies) streamProgram(rng *rand.Rand, minGates int, pipeline string) (streamProgram, error) {
	c := &circuit.Circuit{NumQubits: registerQubits}
	for len(c.Gates) < minGates {
		body, _ := relabel(b.circs[rng.Intn(len(b.circs))], rng)
		c.Gates = append(c.Gates, body.Gates...)
	}
	src, err := qasm.Emit(c)
	if err != nil {
		return streamProgram{}, err
	}
	return streamProgram{Pipeline: pipeline, Seed: 1 + rng.Int63n(1<<20), QASM: []byte(src), Gates: len(c.Gates)}, nil
}

// streamPrograms is the stream workload's request set: n programs,
// pipeline alternating trios/baseline.
func (b *bodies) streamPrograms(seed int64, n, minGates int) ([]streamProgram, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]streamProgram, n)
	for i := range out {
		p := "trios"
		if i%2 == 1 {
			p = "baseline"
		}
		sp, err := b.streamProgram(rng, minGates, p)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// digestInputs fingerprints a request set, so a run records which inputs
// its seed produced and can show that another seed produces others.
func digestInputs(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
