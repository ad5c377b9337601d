package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/device"
	"trios/internal/noise"
	"trios/internal/qasm"
	"trios/internal/sim"
	"trios/internal/topo"
)

// artifact is the part of a /v1/compile response body the checks read.
type artifact struct {
	QASM             string   `json:"qasm"`
	TwoQubitGates    int      `json:"two_qubit_gates"`
	InitialLayout    []int    `json:"initial_layout"`
	FinalLayout      []int    `json:"final_layout"`
	CompileNanos     int64    `json:"compile_ns"`
	EstimatedSuccess *float64 `json:"estimated_success"`
}

// graphs resolves request topology names to coupling graphs once.
type graphs map[string]*topo.Graph

func newGraphs() (graphs, error) {
	gs := graphs{}
	for _, n := range paperTopologies {
		g, err := topo.ByName(n)
		if err != nil {
			return nil, err
		}
		gs[n] = g
	}
	return gs, nil
}

// checkProgram checks a returned program against its device: only basis
// gates, and every cx on a coupling. It returns the two-qubit gate count.
func checkProgram(c *circuit.Circuit, g *topo.Graph) (int, error) {
	if c.NumQubits > g.NumQubits() {
		return 0, fmt.Errorf("program uses %d qubits, %s has %d", c.NumQubits, g.Name(), g.NumQubits())
	}
	cx := 0
	for i, gt := range c.Gates {
		switch gt.Name {
		case circuit.U1, circuit.U2, circuit.U3, circuit.Measure, circuit.Barrier:
		case circuit.CX:
			if !g.Connected(gt.Qubits[0], gt.Qubits[1]) {
				return 0, fmt.Errorf("gate %d cx(%d,%d) is not a coupling of %s", i, gt.Qubits[0], gt.Qubits[1], g.Name())
			}
			cx++
		default:
			return 0, fmt.Errorf("gate %d is not a basis gate: %v", i, gt.Name)
		}
	}
	return cx, nil
}

// checkArtifact runs the output checks on one /v1/compile response body:
// the program parses, uses only basis gates with every cx on a coupling,
// its two_qubit_gates matches its QASM, and it carries an
// estimated_success in [0, 1].
func checkArtifact(body []byte, g *topo.Graph) (*artifact, *circuit.Circuit, error) {
	var a artifact
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, nil, fmt.Errorf("decode artifact: %w", err)
	}
	c, err := qasm.Parse(a.QASM)
	if err != nil {
		return nil, nil, err
	}
	cx, err := checkProgram(c, g)
	if err != nil {
		return nil, nil, err
	}
	if cx != a.TwoQubitGates {
		return nil, nil, fmt.Errorf("two_qubit_gates %d, QASM has %d", a.TwoQubitGates, cx)
	}
	if a.EstimatedSuccess == nil || !(*a.EstimatedSuccess >= 0) || *a.EstimatedSuccess > 1 {
		return nil, nil, errors.New("estimated_success missing or outside [0, 1]")
	}
	return &a, c, nil
}

// logSuccess is the natural log of a's estimated success. An estimate that
// underflowed to 0 (a long program on a sparse device) counts at the
// float64 floor, so the geometric mean stays finite; floored reports it.
func logSuccess(a *artifact) (l float64, floored bool) {
	p := *a.EstimatedSuccess
	if p < math.SmallestNonzeroFloat64 {
		return math.Log(math.SmallestNonzeroFloat64), true
	}
	return math.Log(p), false
}

// verifySample checks a compiled program equivalent to its input by
// simulation (stabilizer for Clifford pairs, dense statevector otherwise).
func verifySample(input string, a *artifact, physical *circuit.Circuit, seed int64) error {
	logical, err := qasm.Parse(input)
	if err != nil {
		return err
	}
	var e sim.Engine
	v, err := e.VerifyCompiled(logical, physical, registerQubits, a.InitialLayout, a.FinalLayout, simCheckTrials, seed)
	if err != nil {
		return err
	}
	if !v.Equivalent {
		return fmt.Errorf("compiled program is not equivalent to its input (%s backend)", v.Backend)
	}
	return nil
}

const (
	streamStatsPrefix = "// trios-stream: "
	streamErrorPrefix = "// trios-stream-error: "
)

// streamTrailer is the part of the stream stats trailer the checks read.
type streamTrailer struct {
	InputGates   int `json:"input_gates"`
	EmittedGates int `json:"emitted_gates"`
}

// successSegment is the emitted-gate length over which a streamed program's
// estimated success is evaluated: a whole 10^5-gate program's estimate
// underflows float64. Short segments keep the geometric mean's logarithm
// small, so it does not magnify the program-to-program spread of a seed's
// streams.
const successSegment = 64

// streamOutcome is what one checked stream response contributes.
type streamOutcome struct {
	cx         int
	logSuccess []float64 // one per successSegment-gate segment
}

// checkStream runs the output checks on one streamed response: an
// error-free stats trailer whose input gate count matches what was sent,
// and a program that parses, uses only basis gates with every cx on a
// coupling, and holds as many gates as the trailer says were emitted.
func checkStream(body []byte, sentGates int, g *topo.Graph, cal *device.Calibration) (*streamOutcome, error) {
	if bytes.Contains(body, []byte(streamErrorPrefix)) {
		return nil, errors.New("stream reported an in-band error")
	}
	trimmed := bytes.TrimRight(body, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	last := trimmed[i+1:]
	if !bytes.HasPrefix(last, []byte(streamStatsPrefix)) {
		return nil, errors.New("stream ended without a stats trailer")
	}
	var tr streamTrailer
	if err := json.Unmarshal(last[len(streamStatsPrefix):], &tr); err != nil {
		return nil, fmt.Errorf("decode stream trailer: %w", err)
	}
	if tr.InputGates != sentGates {
		return nil, fmt.Errorf("trailer input_gates %d, sent %d", tr.InputGates, sentGates)
	}
	c, err := qasm.Parse(string(trimmed[:i+1]))
	if err != nil {
		return nil, err
	}
	if len(c.Gates) != tr.EmittedGates {
		return nil, fmt.Errorf("trailer emitted_gates %d, program has %d", tr.EmittedGates, len(c.Gates))
	}
	return checkStreamProgram(c, g, cal)
}

// checkStreamProgram checks a streamed program against its device and
// evaluates its estimated success segment by segment.
func checkStreamProgram(c *circuit.Circuit, g *topo.Graph, cal *device.Calibration) (*streamOutcome, error) {
	var (
		out streamOutcome
		err error
	)
	if out.cx, err = checkProgram(c, g); err != nil {
		return nil, err
	}
	for lo := 0; lo < len(c.Gates); lo += successSegment {
		hi := min(lo+successSegment, len(c.Gates))
		p, _, err := noise.SuccessWithCalibration(&circuit.Circuit{NumQubits: c.NumQubits, Gates: c.Gates[lo:hi]}, cal, noise.CoherencePerQubit)
		if err != nil {
			return nil, err
		}
		if !(p > 0) {
			return nil, fmt.Errorf("segment at gate %d has estimated success %g", lo, p)
		}
		out.logSuccess = append(out.logSuccess, math.Log(p))
	}
	return &out, nil
}
