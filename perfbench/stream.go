package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"trios/internal/compiler"
	"trios/internal/device"
	"trios/internal/qasm"
	"trios/internal/service"
	"trios/internal/sim"
	"trios/internal/topo"
)

// Sizing of the stream workload.
const (
	streamTopology   = "johannesburg"
	streamsPerSecond = 3     // streamed programs per --seconds
	streamGates      = 32768 // input gates per program: 8 default windows
	// The set-up's warm-up stream is short but cut into 16-gate windows, so
	// the window hand-off is inside the program that is checked equivalent.
	warmupStreamGates  = 48
	warmupStreamWindow = 16
)

func streamQuery(p streamProgram, window int) string {
	q := url.Values{}
	q.Set("topology", streamTopology)
	q.Set("pipeline", p.Pipeline)
	q.Set("seed", strconv.FormatInt(p.Seed, 10))
	if window > 0 {
		q.Set("window", strconv.Itoa(window))
	}
	return "/v1/compile/stream?" + q.Encode()
}

// streamOptions are the options the stream endpoint resolves p's query to.
func streamOptions(p streamProgram, window int) (compiler.StreamOptions, error) {
	opts, err := service.DefaultCompileOptions()
	if err != nil {
		return compiler.StreamOptions{}, err
	}
	opts.Pipeline, err = compiler.ParsePipeline(p.Pipeline)
	if err != nil {
		return compiler.StreamOptions{}, err
	}
	opts.Seed = p.Seed
	return compiler.StreamOptions{Options: opts, Window: window, Parallel: true}, nil
}

// verifyStream compiles p in-process through compiler.StreamCompile, checks
// the served bytes are identical, and checks the program equivalent to its
// input by simulation, with the placement StreamCompile reports.
func verifyStream(p streamProgram, window int, served []byte, g *topo.Graph, seed int64) error {
	sopts, err := streamOptions(p, window)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	res, err := compiler.StreamCompile(context.Background(), bytes.NewReader(p.QASM), &out, g, sopts)
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(served, out.Bytes()) || !bytes.HasPrefix(served[out.Len():], []byte(streamStatsPrefix)) {
		return errors.New("served stream differs from compiler.StreamCompile of the same input")
	}
	logical, err := qasm.Parse(string(p.QASM))
	if err != nil {
		return err
	}
	physical, err := qasm.Parse(out.String())
	if err != nil {
		return err
	}
	var e sim.Engine
	v, err := e.VerifyCompiled(logical, physical, registerQubits, res.Initial, res.Final, simCheckTrials, seed)
	if err != nil {
		return err
	}
	if !v.Equivalent {
		return fmt.Errorf("streamed program is not equivalent to its input (%s backend)", v.Backend)
	}
	return nil
}

// streamWorkload is the stream workload: one client streams long generated
// programs through POST /v1/compile/stream with the endpoint's defaults.
func streamWorkload(cfg *config) (*serveResult, error) {
	b, _, err := cfg.inputs()
	if err != nil {
		return nil, err
	}
	n := max(2, cfg.seconds*streamsPerSecond)
	progs, err := b.streamPrograms(cfg.seed, n, streamGates)
	if err != nil {
		return nil, err
	}
	alt, err := b.streamPrograms(cfg.seed+1, n, streamGates)
	if err != nil {
		return nil, err
	}
	warmProg, err := b.streamProgram(rand.New(rand.NewSource(cfg.seed^0x3a1)), warmupStreamGates, "trios")
	if err != nil {
		return nil, err
	}
	res := &serveResult{digest: digestStreams(progs), altDigest: digestStreams(alt)}
	g, err := topo.ByName(streamTopology)
	if err != nil {
		return nil, err
	}
	cal, err := device.ForDevice(streamTopology)
	if err != nil {
		return nil, err
	}
	warm, err := warmupRequests()
	if err != nil {
		return nil, err
	}
	var warmBody []byte
	d, setup, err := setUp(cfg, func(d *daemon, last bool) error {
		if err := warmUp(d, warm); err != nil {
			return err
		}
		var buf bytes.Buffer
		status, _, resp, err := d.post(streamQuery(warmProg, warmupStreamWindow), "text/plain", bytes.NewReader(warmProg.QASM), &buf)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("warm-up stream: status %d", status)
		}
		if last {
			warmBody = append([]byte(nil), resp...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.setup = setup
	progress("set up %d times, median %.4fs", setups, setup)

	var buf bytes.Buffer
	for i, p := range progs {
		t0 := time.Now()
		status, _, resp, err := d.post(streamQuery(p, 0), "text/plain", bytes.NewReader(p.QASM), &buf)
		lat := time.Since(t0)
		res.lat = append(res.lat, lat)
		res.batchWalls = append(res.batchWalls, lat)
		res.wall += lat
		if err != nil || status != 200 {
			res.fail.add("stream %d: status %d, err %v", i, status, err)
			continue
		}
		out, err := checkStream(resp, p.Gates, g, cal)
		if err != nil {
			res.fail.add("stream %d (%s): %v", i, p.Pipeline, err)
			continue
		}
		res.ok++
		res.inGates += p.Gates
		res.cx += out.cx
		res.logSuccess = append(res.logSuccess, out.logSuccess...)
	}
	progress("timed %d streams in %.2fs, checked", len(progs), res.wall.Seconds())
	res.attempted = len(progs) + 1
	if _, err := checkStream(warmBody, warmProg.Gates, g, cal); err != nil {
		res.fail.add("warm-up stream: %v", err)
	} else if err := verifyStream(warmProg, warmupStreamWindow, warmBody, g, cfg.seed); err != nil {
		res.fail.add("warm-up stream: %v", err)
	}
	if res.rss, err = d.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

func digestStreams(ps []streamProgram) string {
	parts := make([][]byte, 0, 2*len(ps))
	for _, p := range ps {
		parts = append(parts, []byte(streamQuery(p, 0)), p.QASM)
	}
	return digestInputs(parts...)
}
