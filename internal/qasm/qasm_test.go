package qasm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"trios/internal/circuit"
	"trios/internal/sim"
)

func TestEmitBasic(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CX(0, 1).Measure(0).Measure(1)
	src, err := Emit(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"OPENQASM 2.0;",
		"qreg q[2];",
		"creg c[2];",
		"h q[0];",
		"cx q[0], q[1];",
		"measure q[0] -> c[0];",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in output:\n%s", want, src)
		}
	}
}

func TestEmitNoCregWithoutMeasure(t *testing.T) {
	c := circuit.New(1)
	c.H(0)
	src, _ := Emit(c)
	if strings.Contains(src, "creg") {
		t.Error("creg emitted for measure-free circuit")
	}
}

func TestEmitParams(t *testing.T) {
	c := circuit.New(1)
	c.RZ(math.Pi/4, 0).U3(0.1, 0.2, 0.3, 0)
	src, err := Emit(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "rz(") || !strings.Contains(src, "u3(") {
		t.Errorf("params not emitted:\n%s", src)
	}
}

func TestEmitMCXDialect(t *testing.T) {
	c := circuit.New(4)
	c.MCX([]int{0, 1, 2}, 3)
	src, err := Emit(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "mcx q[0], q[1], q[2], q[3];") {
		t.Errorf("mcx not emitted in dialect form:\n%s", src)
	}
	back, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Errorf("mcx did not round-trip:\n%v", back)
	}
}

func TestEmitBarrier(t *testing.T) {
	c := circuit.New(2)
	c.Barrier(0, 1)
	src, err := Emit(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "barrier q[0], q[1];") {
		t.Errorf("barrier missing:\n%s", src)
	}
}

func TestParseBasic(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0], q[1];
ccx q[0], q[1], q[2];
rz(0.5) q[2];
measure q[2] -> c[2];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 || len(c.Gates) != 5 {
		t.Fatalf("parsed %d qubits %d gates", c.NumQubits, len(c.Gates))
	}
	if c.Gates[2].Name != circuit.CCX {
		t.Errorf("gate 2 = %v", c.Gates[2])
	}
	if c.Gates[3].Params[0] != 0.5 {
		t.Errorf("rz param = %v", c.Gates[3].Params)
	}
}

func TestParsePiExpressions(t *testing.T) {
	src := "qreg q[1];\nu1(pi/2) q[0];\nu1(-pi/4) q[0];\nu1(pi) q[0];\nu1(2*pi) q[0];\nu1(-pi) q[0];\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Pi / 2, -math.Pi / 4, math.Pi, 2 * math.Pi, -math.Pi}
	for i, w := range want {
		if math.Abs(c.Gates[i].Params[0]-w) > 1e-12 {
			t.Errorf("param %d = %v, want %v", i, c.Gates[i].Params[0], w)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := "// header\nqreg q[1]; // register\nh q[0]; // gate\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 {
		t.Errorf("gates = %d", len(c.Gates))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"h q[0];",                 // gate before qreg
		"qreg q[1];\nbogus q[0];", // unknown gate
		"qreg q[1];\ncx q[0];",    // wrong arity
		"qreg q[1];\nrz q[0];",    // missing param
		"qreg q[0];",              // empty register
		"",                        // no qreg
		"qreg q[1];\nqreg r[1];",  // duplicate qreg
		"qreg q[1];\nh r[0];",     // wrong register name
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

// TestParseRefusesNonFiniteParams holds Parse and Reader to the rule that
// a gate parameter is a finite real: NaN, the infinities and the pi forms
// that overflow are refused with the bad-parameter error, while their
// finite neighbours parse to their exact values.
func TestParseRefusesNonFiniteParams(t *testing.T) {
	cases := []struct {
		param string
		want  float64 // NaN: refused
	}{
		{"nan", math.NaN()},
		{"NaN", math.NaN()},
		{"-inf", math.NaN()},
		{"+Inf", math.NaN()},
		{"infinity", math.NaN()},
		{"1e308*pi", math.NaN()},
		{"-1e308*pi", math.NaN()},
		{"pi/1e-320", math.NaN()},
		{"-pi/1e-320", math.NaN()},
		{"nan*pi", math.NaN()},
		{"0x1p-2", 0.25},
		{"1e308", 1e308},
		{"-pi/2", -math.Pi / 2},
		{"1e307*pi", 1e307 * math.Pi},
		{"pi/1e-300", math.Pi / 1e-300},
	}
	for _, tc := range cases {
		src := "qreg q[1];\nrz(" + tc.param + ") q[0];\n"
		c, err := Parse(src)
		r := NewReader(strings.NewReader(src))
		g, rerr := r.NextGate()
		if math.IsNaN(tc.want) {
			want := fmt.Sprintf("qasm: line 2: bad parameter %q", tc.param)
			if err == nil || err.Error() != want {
				t.Errorf("Parse(rz(%s)): error %v, want %s", tc.param, err, want)
			}
			if rerr == nil || rerr.Error() != want {
				t.Errorf("Reader(rz(%s)): error %v, want %s", tc.param, rerr, want)
			}
			continue
		}
		if err != nil || rerr != nil {
			t.Errorf("rz(%s): Parse error %v, Reader error %v", tc.param, err, rerr)
			continue
		}
		if got := c.Gates[0].Params[0]; got != tc.want {
			t.Errorf("Parse(rz(%s)) = %v, want %v", tc.param, got, tc.want)
		}
		if got := g.Params[0]; got != tc.want {
			t.Errorf("Reader(rz(%s)) = %v, want %v", tc.param, got, tc.want)
		}
	}
}

func TestRoundTripPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 4, 20)
		src, err := Emit(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(src)
		if err != nil {
			t.Fatalf("parse failed: %v\nsource:\n%s", err, src)
		}
		ok, err := sim.Equivalent(c, back, 3, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("round trip changed semantics:\n%s", src)
		}
	}
}

func TestRoundTripExactGateList(t *testing.T) {
	c := circuit.New(3)
	c.H(0).T(1).Tdg(2).S(0).Sdg(1).X(2).Y(0).Z(1)
	c.CX(0, 1).CZ(1, 2).SWAP(0, 2).CCX(0, 1, 2)
	c.U1(0.25, 0).U2(0.5, 0.75, 1).U3(1, 2, 3, 2)
	src, err := Emit(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(back) {
		t.Errorf("round trip changed gate list:\n%v\nvs\n%v", c, back)
	}
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.RZ(rng.Float64()*6, rng.Intn(n))
		case 3:
			c.U3(rng.Float64(), rng.Float64(), rng.Float64(), rng.Intn(n))
		case 4:
			p := rng.Perm(n)
			c.CX(p[0], p[1])
		default:
			p := rng.Perm(n)
			c.CCX(p[0], p[1], p[2])
		}
	}
	return c
}

// emitGateFmt is the fmt-based gate renderer the emitters used before
// AppendGate, kept as the reference AppendGate must match byte for byte.
func emitGateFmt(g circuit.Gate) string {
	switch g.Name {
	case circuit.Measure:
		q := g.Qubits[0]
		return fmt.Sprintf("measure q[%d] -> c[%d];", q, q)
	case circuit.Barrier:
		parts := make([]string, len(g.Qubits))
		for i, q := range g.Qubits {
			parts[i] = fmt.Sprintf("q[%d]", q)
		}
		return "barrier " + strings.Join(parts, ", ") + ";"
	}
	var b strings.Builder
	b.WriteString(g.Name.String())
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.17g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	b.WriteByte(';')
	return b.String()
}

// awkwardParams are the parameter values whose %.17g forms differ most:
// signed zeros, values with no short decimal form, subnormals, extremes,
// infinities and NaN.
var awkwardParams = []float64{
	0, math.Copysign(0, -1), math.Pi / 4, -math.Pi / 4, 0.1 + 0.2,
	1e-300, 5e-324, 1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// allNames lists every valid gate kind.
func allNames() []circuit.Name {
	var names []circuit.Name
	for n := circuit.Name(0); n.Valid(); n++ {
		names = append(names, n)
	}
	return names
}

// gatesOf builds the gates TestAppendGateMatchesFmt renders for name: every
// operand count the kind allows (2-6 for mcx, 0-6 for barrier), on small
// and multi-digit qubits, with each awkward value in each parameter slot.
func gatesOf(name circuit.Name) []circuit.Gate {
	counts := []int{name.Arity()}
	switch name {
	case circuit.MCX:
		counts = []int{2, 3, 4, 5, 6}
	case circuit.Barrier:
		counts = []int{0, 1, 2, 3, 4, 5, 6}
	}
	var gates []circuit.Gate
	for _, n := range counts {
		for _, base := range []int{0, 9, 98, 12345} {
			qubits := make([]int, n)
			for i := range qubits {
				qubits[i] = base + i
			}
			k := name.ParamCount()
			if k == 0 {
				gates = append(gates, circuit.Gate{Name: name, Qubits: qubits})
				continue
			}
			for i := range awkwardParams {
				params := make([]float64, k)
				for j := range params {
					params[j] = awkwardParams[(i+j)%len(awkwardParams)]
				}
				gates = append(gates, circuit.Gate{Name: name, Qubits: qubits, Params: params})
			}
		}
	}
	return gates
}

func TestAppendGateMatchesFmt(t *testing.T) {
	names := allNames()
	if last := names[len(names)-1]; last != circuit.Barrier {
		t.Fatalf("gate kinds end at %v, want barrier", last)
	}
	prefix := []byte("prefix;")
	for _, name := range names {
		for _, g := range gatesOf(name) {
			want := emitGateFmt(g)
			if got := string(AppendGate(nil, g)); got != want {
				t.Errorf("%v %v %v: AppendGate %q, fmt %q", name, g.Qubits, g.Params, got, want)
			}
			buf := AppendGate(append([]byte(nil), prefix...), g)
			if !bytes.HasPrefix(buf, prefix) || string(buf[len(prefix):]) != want {
				t.Errorf("%v: AppendGate after a prefix wrote %q", name, buf)
			}
		}
	}
}

// FuzzAppendGate compares AppendGate with the fmt reference on arbitrary
// names (valid or not), operand lists and parameter bits.
func FuzzAppendGate(f *testing.F) {
	f.Add(uint8(circuit.U3), uint8(3), []byte{0, 1}, math.Float64bits(math.Pi/4), math.Float64bits(-0.0), math.Float64bits(math.NaN()))
	f.Add(uint8(circuit.MCX), uint8(0), []byte{0, 1, 0, 2, 0, 3, 1, 0}, uint64(0), uint64(1), uint64(0x7ff0000000000000))
	f.Add(uint8(circuit.Measure), uint8(1), []byte{0, 7}, uint64(1), uint64(0), uint64(0))
	f.Add(uint8(circuit.Barrier), uint8(2), []byte{}, uint64(0), uint64(0), uint64(0))
	f.Add(uint8(200), uint8(1), []byte{255, 255}, uint64(0), uint64(0), uint64(0))
	valid := len(allNames())
	f.Fuzz(func(t *testing.T, name, nparams uint8, qubits []byte, p0, p1, p2 uint64) {
		g := circuit.Gate{Name: circuit.Name(int(name)%(valid+2) - 1)} // -1 and valid are unknown kinds
		for i := 0; i+1 < len(qubits) && i < 16; i += 2 {
			g.Qubits = append(g.Qubits, int(binary.BigEndian.Uint16(qubits[i:])))
		}
		if g.Name == circuit.Measure && len(g.Qubits) == 0 {
			return // a measure names its qubit; neither renderer handles none
		}
		for _, bits := range []uint64{p0, p1, p2}[:nparams%4] {
			g.Params = append(g.Params, math.Float64frombits(bits))
		}
		if got, want := string(AppendGate(nil, g)), emitGateFmt(g); got != want {
			t.Fatalf("%+v: AppendGate %q, fmt %q", g, got, want)
		}
	})
}

// TestEmitterZeroAllocsPerGate: once its line buffer has grown, the
// emitter renders and buffers a gate without allocating.
func TestEmitterZeroAllocsPerGate(t *testing.T) {
	var gates []circuit.Gate
	for _, name := range allNames() {
		gates = append(gates, gatesOf(name)...)
	}
	e, err := NewEmitter(io.Discard, 12346, true)
	if err != nil {
		t.Fatal(err)
	}
	emitAll := func() {
		for _, g := range gates {
			if err := e.EmitGate(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	emitAll() // warm: grow the line buffer to the longest statement
	if allocs := testing.AllocsPerRun(10, emitAll); allocs != 0 {
		t.Fatalf("EmitGate allocated %.1f times per %d gates, want 0", allocs, len(gates))
	}
}

// TestEmitRejectsUnknownGate: a gate whose name has no mnemonic would print
// as text Parse rejects, so Emit refuses it with the gate's index, and
// EmitGate refuses it with the same error, writes none of it and stays dead.
func TestEmitRejectsUnknownGate(t *testing.T) {
	bad := circuit.Gate{Name: circuit.Name(200), Qubits: []int{0}}
	c := circuit.New(2)
	c.H(0)
	c.Gates = append(c.Gates, bad)
	src, emitErr := Emit(c)
	if emitErr == nil {
		t.Fatalf("Emit accepted an unknown gate:\n%s", src)
	}
	if want := "qasm: gate 1: "; !strings.HasPrefix(emitErr.Error(), want) {
		t.Fatalf("Emit error %q, want prefix %q", emitErr, want)
	}

	e, err := NewEmitter(io.Discard, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EmitGate(c.Gates[0]); err != nil {
		t.Fatal(err)
	}
	err = e.EmitGate(bad)
	if err == nil || err.Error() != emitErr.Error() {
		t.Fatalf("EmitGate error %v, want Emit's %q", err, emitErr)
	}
	if again := e.EmitGate(c.Gates[0]); again != err {
		t.Fatalf("after an error EmitGate returned %v, want %v", again, err)
	}
	if ferr := e.Flush(); ferr != err {
		t.Fatalf("Flush returned %v, want %v", ferr, err)
	}
	if e.Gates() != 1 {
		t.Fatalf("Gates() = %d, want 1", e.Gates())
	}
	if n := e.w.Buffered(); n != len("h q[0];\n") {
		t.Fatalf("%d bytes buffered, want only the h gate's line", n)
	}
}
