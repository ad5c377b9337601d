package compiler

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"trios/internal/circuit"
	"trios/internal/decompose"
	"trios/internal/device"
	"trios/internal/qasm"
	"trios/internal/sched"
	"trios/internal/sim"
	"trios/internal/topo"
)

// mixedCircuit builds a deterministic mixed workload (1q rotations, CNOTs,
// Toffolis, barriers, trailing measures) big enough that every tested
// window size actually splits it.
func mixedCircuit(n, gates int, seed int64) *circuit.Circuit {
	return mixedCircuitOpt(n, gates, seed, true)
}

func mixedCircuitOpt(n, gates int, seed int64, measures bool) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for len(c.Gates) < gates-n {
		switch k := rng.Intn(12); {
		case k < 3:
			c.H(rng.Intn(n))
		case k < 5:
			c.RZ(float64(rng.Intn(7)+1)/7.0, rng.Intn(n))
		case k < 6:
			c.T(rng.Intn(n))
		case k < 9:
			q := rng.Perm(n)
			c.CX(q[0], q[1])
		case k < 11:
			q := rng.Perm(n)
			c.CCX(q[0], q[1], q[2])
		default:
			c.Append(circuit.Gate{Name: circuit.Barrier, Qubits: []int{rng.Intn(n)}})
		}
	}
	if measures {
		for q := 0; q < n; q++ {
			c.Measure(q)
		}
	}
	return c
}

// commutingRunCircuit places a long run of mutually commuting gates (CZs
// and RZs on overlapping qubits) so that small windows split the commuting
// region — the optimizer's worst case for windowed divergence.
func commutingRunCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	c.CX(0, 1)
	for i := 0; i < 150; i++ {
		c.RZ(0.3, i%n)
		c.CZ(i%n, (i+1)%n)
	}
	c.CCX(0, 1, 2)
	for i := 0; i < 30; i++ {
		c.T(i % n)
	}
	return c
}

// streamGolden compiles src both ways and requires byte-identity, and under
// a calibration the same makespan.
func streamGolden(t *testing.T, src string, g *topo.Graph, opts StreamOptions) *StreamResult {
	t.Helper()
	input, err := qasm.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	mono, err := Compile(input, g, opts.Options)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want, err := qasm.Emit(mono.Physical)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	var out bytes.Buffer
	res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
	if err != nil {
		t.Fatalf("StreamCompile: %v", err)
	}
	if out.String() != want {
		i := 0
		for i < len(want) && i < out.Len() && want[i] == out.String()[i] {
			i++
		}
		t.Fatalf("streamed output diverges from monolithic at byte %d (window=%d parallel=%v):\n...%q...",
			i, opts.Window, opts.Parallel, clip(want, i))
	}
	if res.SwapsAdded != mono.SwapsAdded {
		t.Fatalf("SwapsAdded %d != monolithic %d", res.SwapsAdded, mono.SwapsAdded)
	}
	if !reflect.DeepEqual(res.Initial, mono.Initial) || !reflect.DeepEqual(res.Final, mono.Final) {
		t.Fatalf("layout handoff diverged: initial %v vs %v, final %v vs %v",
			res.Initial, mono.Initial, res.Final, mono.Final)
	}
	if res.EmittedGates != len(mono.Physical.Gates) {
		t.Fatalf("EmittedGates %d != monolithic %d", res.EmittedGates, len(mono.Physical.Gates))
	}
	if opts.Calibration != nil && res.ScheduledDuration != mono.Makespan {
		t.Fatalf("%s: ScheduledDuration %v != monolithic Makespan %v", opts.Calibration.Name, res.ScheduledDuration, mono.Makespan)
	}
	return res
}

func clip(s string, i int) string {
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestStreamByteIdenticalAcrossDevices is the window-boundary property
// test with optimization off: for every registry device, window sizes that
// split the circuit at many different boundaries (including mid-commuting-
// region), and both pipeline shapes, the stitched streaming output must be
// byte-identical to the monolithic compile. Every registry calibration,
// given gate times other than Johannesburg's, must also give the stream
// Compile's makespan.
func TestStreamByteIdenticalAcrossDevices(t *testing.T) {
	c := mixedCircuit(18, 10000, 11)
	src, err := qasm.Emit(c)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	for _, name := range topo.Names() {
		g, err := topo.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for _, window := range []int{64, 1024, 8192} {
			opts := StreamOptions{Window: window}
			opts.Pipeline = TriosPipeline
			opts.Seed = 1
			streamGolden(t, src, g, opts)
		}
	}
	for _, name := range device.Names() {
		reg, err := device.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := topo.ByName(reg.Device)
		if err != nil {
			t.Fatal(err)
		}
		cal := reg.Clone()
		cal.Times = sched.GateTimes{OneQubit: 0.05, TwoQubit: 0.3, Measure: 2}
		opts := StreamOptions{Window: 1024}
		opts.Pipeline = TriosPipeline
		opts.Seed = 1
		opts.Calibration = cal
		streamGolden(t, src, g, opts)
	}
}

// TestStreamByteIdenticalMatrix drills one device through the full option
// matrix: both pipelines, the Six-mode fixup session, both seeds, serial
// and pipelined drivers, every window size, and a program whose front
// output widens by a borrowed wire.
func TestStreamByteIdenticalMatrix(t *testing.T) {
	src, err := qasm.Emit(mixedCircuit(18, 10000, 7))
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Johannesburg()
	type shape struct {
		pipeline Pipeline
		mode     decompose.ToffoliMode
	}
	shapes := []shape{
		{Conventional, decompose.Auto},
		{TriosPipeline, decompose.Auto},
		{TriosPipeline, decompose.Six},
		{TriosPipeline, decompose.Eight},
	}
	for _, sh := range shapes {
		for _, seed := range []int64{1, 5} {
			for _, window := range []int{64, 1024, 8192} {
				for _, parallel := range []bool{false, true} {
					opts := StreamOptions{Window: window, Parallel: parallel}
					opts.Pipeline = sh.pipeline
					opts.Mode = sh.mode
					opts.Seed = seed
					streamGolden(t, src, g, opts)
				}
			}
		}
	}
	// A whole-register mcx borrows a wire past the register, so the windows
	// that cut this program leave the front at different widths.
	wide := "qreg q[6];\nh q[0];\nmcx q[0],q[1],q[2],q[3],q[4],q[5];\ncx q[5],q[0];\n" +
		"mcx q[5],q[4],q[3],q[2],q[1],q[0];\nccx q[0],q[1],q[2];\n"
	for _, sh := range shapes {
		for _, window := range []int{1, 2} {
			for _, parallel := range []bool{false, true} {
				opts := StreamOptions{Window: window, Parallel: parallel}
				opts.Pipeline = sh.pipeline
				opts.Mode = sh.mode
				opts.Seed = 1
				streamGolden(t, wide, g, opts)
			}
		}
	}
}

// TestStreamSplitCommutingRegion pins the nastiest boundary: a window size
// that cuts a long commuting run. Optimize off must stay byte-identical;
// optimize on (where windowed saturation legitimately differs from global
// saturation) must stay simulation-equivalent to the logical input.
func TestStreamSplitCommutingRegion(t *testing.T) {
	logical := commutingRunCircuit(6)
	src, err := qasm.Emit(logical)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Line(8)
	for _, window := range []int{64, 1024} {
		opts := StreamOptions{Window: window}
		opts.Pipeline = TriosPipeline
		opts.Seed = 3
		streamGolden(t, src, g, opts)

		opts.Optimize = true
		var out bytes.Buffer
		res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
		if err != nil {
			t.Fatalf("StreamCompile optimize: %v", err)
		}
		physical, err := qasm.Parse(out.String())
		if err != nil {
			t.Fatalf("parse streamed output: %v", err)
		}
		n := logical.NumQubits
		ok, err := sim.CompiledEquivalent(logical, physical, g.NumQubits(), res.Initial[:n], res.Final[:n], 3, 17)
		if err != nil {
			t.Fatalf("CompiledEquivalent: %v", err)
		}
		if !ok {
			t.Fatalf("optimized streamed output (window=%d) is not equivalent to the logical circuit", window)
		}
	}
}

// TestStreamOptimizedEquivalence checks the optimize-on arm across both
// pipelines and seeds on a mixed circuit: the streamed physical program
// must implement the logical input under its reported initial/final maps.
func TestStreamOptimizedEquivalence(t *testing.T) {
	logical := mixedCircuitOpt(8, 400, 23, false)
	src, err := qasm.Emit(logical)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Grid(3, 3)
	for _, pipeline := range []Pipeline{Conventional, TriosPipeline} {
		for _, seed := range []int64{2, 9} {
			opts := StreamOptions{Window: 64}
			opts.Pipeline = pipeline
			opts.Seed = seed
			opts.Optimize = true
			var out bytes.Buffer
			res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
			if err != nil {
				t.Fatalf("StreamCompile: %v", err)
			}
			physical, err := qasm.Parse(out.String())
			if err != nil {
				t.Fatalf("parse streamed output: %v", err)
			}
			n := logical.NumQubits
			ok, err := sim.CompiledEquivalent(logical, physical, g.NumQubits(), res.Initial[:n], res.Final[:n], 2, 31)
			if err != nil {
				t.Fatalf("CompiledEquivalent: %v", err)
			}
			if !ok {
				t.Fatalf("pipeline=%v seed=%d: optimized streamed output not equivalent", pipeline, seed)
			}
		}
	}
}

// TestStreamGreedyPlacementPinned: greedy placement sees only the first
// window, so full byte-identity holds once the monolithic arm is pinned to
// the placement streaming chose (and unpinned when one window holds the
// whole circuit).
func TestStreamGreedyPlacementPinned(t *testing.T) {
	src, err := qasm.Emit(mixedCircuit(16, 3000, 13))
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Grid5x4()

	// One window >= circuit: placement sees everything, unpinned identity.
	one := StreamOptions{Window: 1 << 20}
	one.Pipeline = TriosPipeline
	one.Placement = PlaceGreedy
	one.Seed = 1
	streamGolden(t, src, g, one)

	// Many windows: pin the monolithic arm to streaming's placement.
	var out bytes.Buffer
	opts := StreamOptions{Window: 256}
	opts.Pipeline = TriosPipeline
	opts.Placement = PlaceGreedy
	opts.Seed = 1
	res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
	if err != nil {
		t.Fatalf("StreamCompile: %v", err)
	}
	input, err := qasm.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pinned := opts.Options
	pinned.Placement = PlaceIdentity
	pinned.InitialLayout = res.Initial
	mono, err := Compile(input, g, pinned)
	if err != nil {
		t.Fatalf("Compile pinned: %v", err)
	}
	want, err := qasm.Emit(mono.Physical)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	if out.String() != want {
		t.Fatal("windowed greedy compile diverged from the pinned monolithic compile")
	}
}

// TestStreamRejectsUnstreamable locks the facade's scope: layer-based
// routers need the whole circuit and must be refused.
func TestStreamRejectsUnstreamable(t *testing.T) {
	g := topo.Line(4)
	src := "qreg q[2];\ncx q[0], q[1];\n"
	bad := []StreamOptions{
		func() StreamOptions { o := StreamOptions{}; o.Router = RouteStochastic; return o }(),
		func() StreamOptions { o := StreamOptions{}; o.Router = RouteLookahead; return o }(),
	}
	for _, opts := range bad {
		if _, err := StreamCompile(context.Background(), strings.NewReader(src), &bytes.Buffer{}, g, opts); err == nil {
			t.Fatalf("StreamCompile accepted unstreamable options %+v", opts)
		}
	}
}

// TestWholeRegisterMCXFitsOrFails: an mcx spanning its whole register
// borrows the wire one past it. Where the device has that wire, both
// pipelines compile it equivalently (dense check on a 6-qubit line); where
// the register is as wide as the device, Compile and both stream drivers
// return the fit error before any gate reaches a router.
func TestWholeRegisterMCXFitsOrFails(t *testing.T) {
	small := circuit.New(5)
	small.MCX([]int{0, 1, 2, 3}, 4)
	wide := circuit.New(20)
	wide.MCX([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, 19)
	src, err := qasm.Emit(wide)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	const fit = "circuit needs 21 qubits, device ibmq-johannesburg has 20"
	for _, pipe := range []Pipeline{Conventional, TriosPipeline} {
		res, err := Compile(small, topo.Line(6), Options{Pipeline: pipe})
		if err != nil {
			t.Fatalf("%v: %v", pipe, err)
		}
		verifyCompiled(t, res)
		if _, err := Compile(wide, g, Options{Pipeline: pipe}); err == nil || !strings.Contains(err.Error(), fit) {
			t.Fatalf("%v: Compile error %v, want %q", pipe, err, fit)
		}
		for _, parallel := range []bool{false, true} {
			opts := StreamOptions{Parallel: parallel}
			opts.Pipeline = pipe
			_, err := StreamCompile(context.Background(), strings.NewReader(src), &bytes.Buffer{}, g, opts)
			if err == nil || !strings.Contains(err.Error(), fit) {
				t.Fatalf("%v parallel=%v: StreamCompile error %v, want %q", pipe, parallel, err, fit)
			}
		}
	}
}

// TestStreamRejectsRegisterGrowth: strict register bounds are a streaming
// precondition (later growth would retroactively change early windows).
func TestStreamRejectsRegisterGrowth(t *testing.T) {
	src := "qreg q[2];\nh q[0];\nh q[7];\n"
	opts := StreamOptions{Window: 1}
	if _, err := StreamCompile(context.Background(), strings.NewReader(src), &bytes.Buffer{}, topo.Line(10), opts); err == nil {
		t.Fatal("StreamCompile accepted a register-growing stream")
	} else if !strings.Contains(err.Error(), "strict register bounds") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// optimizedStreamDigests pins the optimize-on streamed output, which no
// monolithic compile reproduces (per-window saturation differs from global
// saturation). Each digest covers the emitted bytes and the reported
// placements and SWAP count; the serial and pipelined drivers must both
// produce it.
var optimizedStreamDigests = map[string]string{
	"baseline/auto/saturate/w64":   "fdbe689806b349b7",
	"baseline/auto/saturate/w1024": "956448e538abb6ad",
	"trios/auto/saturate/w64":      "af15009172f70e66",
	"trios/auto/saturate/w1024":    "cf9ce0fb75c074c8",
	"trios/6-cnot/saturate/w64":    "caac8629954c46b8",
	"trios/6-cnot/saturate/w1024":  "c471381491c79dcc",
	"trios/8-cnot/saturate/w64":    "11fb4910903495a3",
	"trios/8-cnot/saturate/w1024":  "ef818c0f52041186",
}

// TestStreamOptimizedDigestsPinned holds the optimize-on stream to its
// recorded output across both pipelines, every Trios Toffoli mode, two
// window sizes and both drivers. The device is the
// clusters topology, whose triangles make the auto Toffoli mode differ
// from both forced modes.
func TestStreamOptimizedDigestsPinned(t *testing.T) {
	src, err := qasm.Emit(mixedCircuit(18, 3000, 19))
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	g := topo.Clusters5x4()
	type shape struct {
		pipeline Pipeline
		mode     decompose.ToffoliMode
	}
	shapes := []shape{
		{Conventional, decompose.Auto},
		{TriosPipeline, decompose.Auto},
		{TriosPipeline, decompose.Six},
		{TriosPipeline, decompose.Eight},
	}
	for _, sh := range shapes {
		for _, window := range []int{64, 1024} {
			key := fmt.Sprintf("%v/%v/saturate/w%d", sh.pipeline, sh.mode, window)
			for _, parallel := range []bool{false, true} {
				opts := StreamOptions{Window: window, Parallel: parallel}
				opts.Pipeline = sh.pipeline
				opts.Mode = sh.mode
				opts.Optimize = true
				opts.Seed = 4
				var out bytes.Buffer
				res, err := StreamCompile(context.Background(), strings.NewReader(src), &out, g, opts)
				if err != nil {
					t.Fatalf("%s parallel=%v: %v", key, parallel, err)
				}
				fmt.Fprintf(&out, "swaps=%d initial=%v final=%v", res.SwapsAdded, res.Initial, res.Final)
				sum := sha256.Sum256(out.Bytes())
				got := hex.EncodeToString(sum[:8])
				if want := optimizedStreamDigests[key]; got != want {
					t.Errorf("%s parallel=%v: digest %s, want %s", key, parallel, got, want)
				}
			}
		}
	}
}

// TestStreamRejectsForeignCostModel: a cost model built on another
// device's calibration must be refused up front with the same calibration
// error Compile returns, not surface later as a routing failure.
func TestStreamRejectsForeignCostModel(t *testing.T) {
	cal, err := device.ByName("line-synthetic")
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Johannesburg()
	src := "qreg q[8];\nccx q[0], q[1], q[2];\ncx q[2], q[6];\ncx q[7], q[0];\n"
	input, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{}
	opts.Pipeline = TriosPipeline
	opts.CostModel = device.NoiseFor(cal)
	_, want := Compile(input, g, opts.Options)
	if want == nil {
		t.Fatal("Compile accepted a cost model for another device")
	}
	for _, parallel := range []bool{false, true} {
		opts.Parallel = parallel
		_, err := StreamCompile(context.Background(), strings.NewReader(src), &bytes.Buffer{}, g, opts)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("parallel=%v: StreamCompile error %v, want %v", parallel, err, want)
		}
	}
}

// streamWithin runs StreamCompile and fails the test if it has not
// returned within a minute. StreamCompile joins every stage goroutine
// before returning, so a return proves the whole driver shut down.
func streamWithin(t *testing.T, ctx context.Context, src io.Reader, opts StreamOptions) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := StreamCompile(ctx, src, io.Discard, topo.Johannesburg(), opts)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatal("StreamCompile did not return")
		return nil
	}
}

// TestStreamPipelinedRegisterGrowthLate: a register-growth error found in a
// late window comes back from the pipelined driver as that error, while
// earlier windows are still in flight in the later stages.
func TestStreamPipelinedRegisterGrowthLate(t *testing.T) {
	c := mixedCircuitOpt(6, 2000, 5, false)
	src, err := qasm.Emit(c)
	if err != nil {
		t.Fatal(err)
	}
	src += "h q[9];\n"
	opts := StreamOptions{Window: 32, Parallel: true}
	opts.Pipeline = TriosPipeline
	want := fmt.Sprintf("gate %d references a qubit beyond the declared 6-qubit register", len(c.Gates))
	err = streamWithin(t, context.Background(), strings.NewReader(src), opts)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// cancelAfter is a source that cancels its context once n bytes have been
// read from it, then keeps serving the rest of the program.
type cancelAfter struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	if c.n -= k; c.n <= 0 {
		c.cancel()
	}
	return k, err
}

// TestStreamPipelinedCancelMidStream: cancelling the context while the
// pipelined driver is mid-stream returns context.Canceled, and no stage
// goroutine outlives the call. The compile runs under a goroutine label,
// which every goroutine it starts inherits, so the goroutine profile shows
// which stream goroutines are its own.
func TestStreamPipelinedCancelMidStream(t *testing.T) {
	src, err := qasm.Emit(mixedCircuitOpt(6, 20000, 9, false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := StreamOptions{Window: 64, Parallel: true}
	opts.Pipeline = TriosPipeline
	pprof.Do(ctx, pprof.Labels("test", t.Name()), func(ctx context.Context) {
		err = streamWithin(t, ctx, &cancelAfter{r: strings.NewReader(src), n: len(src) / 4, cancel: cancel}, opts)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	label := fmt.Sprintf("%q:%q", "test", t.Name())
	deadline := time.Now().Add(time.Second)
	for {
		left := streamGoroutines(label)
		if left == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream goroutines still running 1s after StreamCompile returned:\n%s", left)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// streamGoroutines returns the goroutine profile records (debug=1 form)
// that carry label and have a frame in package stream, or "" if none do.
func streamGoroutines(label string) string {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return err.Error()
	}
	var found []string
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(rec, label) && strings.Contains(rec, "trios/internal/stream.") {
			found = append(found, rec)
		}
	}
	return strings.Join(found, "\n\n")
}
