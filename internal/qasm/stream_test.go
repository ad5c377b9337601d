package qasm

import (
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"trios/internal/circuit"
)

// drainReader pulls every gate out of a streaming reader, returning the
// gates and the terminal error (io.EOF for a well-formed program).
func drainReader(t *testing.T, src string) ([]circuit.Gate, error) {
	t.Helper()
	r := NewReader(strings.NewReader(src))
	var gates []circuit.Gate
	for {
		g, err := r.NextGate()
		if err != nil {
			return gates, err
		}
		gates = append(gates, g)
	}
}

func TestStreamReaderMatchesParse(t *testing.T) {
	srcs := []string{
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0], q[1];\nccx q[0], q[1], q[2];\n",
		"qreg q[2]; rz(pi/2) q[0]; u3(0.1, -pi, 3*pi) q[1]; measure q[0] -> c[0];",
		"qreg q[5]; mcx q[0], q[1], q[2], q[3], q[4]; barrier q[0], q[1];",
		"qreg q[1]; rx(-pi/4) q[0]; // comment\n",
		"creg c[2]; qreg q[2]; swap q[0], q[1];",
		"qreg q[2]; h q[5]; cx q[0], q[1];", // register growth
		"qreg q[4];\n\n// only comments\n\nt q[3]; tdg q[2];\n",
	}
	for _, src := range srcs {
		want, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		r := NewReader(strings.NewReader(src))
		var got []circuit.Gate
		for {
			g, err := r.NextGate()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("NextGate on %q: %v", src, err)
			}
			got = append(got, g)
		}
		if len(got) != len(want.Gates) {
			t.Fatalf("%q: reader saw %d gates, Parse saw %d", src, len(got), len(want.Gates))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want.Gates[i]) {
				t.Fatalf("%q gate %d: reader %+v != Parse %+v", src, i, got[i], want.Gates[i])
			}
		}
		if r.NumQubits() != want.NumQubits {
			t.Fatalf("%q: reader NumQubits %d != Parse %d", src, r.NumQubits(), want.NumQubits)
		}
	}
}

func TestStreamReaderErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"", "no qreg"},
		{"OPENQASM 2.0;\ninclude \"qelib1.inc\";\n", "no qreg"},
		{"x q[0]; qreg q[1];", "gate before qreg"},
		{"qreg q[2]; zz q[0];", "unknown gate"},
		{"qreg q[2]; cx q[0], q[0];", "repeats qubit"},
		{"qreg q[2]; barrier q[1], q[0], q[1];", "gate barrier repeats qubit 1"},
		{"qreg q[1]; qreg p[1];", "multiple qreg"},
	}
	for _, tc := range cases {
		gates, err := drainReader(t, tc.src)
		if err == nil || err == io.EOF {
			t.Fatalf("%q: expected parse error, got %d gates and err=%v", tc.src, len(gates), err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%q: error %q does not mention %q", tc.src, err, tc.want)
		}
		// Errors are sticky.
		r := NewReader(strings.NewReader(tc.src))
		for i := 0; i < len(gates)+3; i++ {
			_, lastErr := r.NextGate()
			if lastErr != nil && !strings.Contains(lastErr.Error(), tc.want) && lastErr != io.EOF {
				t.Fatalf("%q: unexpected error %v", tc.src, lastErr)
			}
		}
	}
}

func TestStreamReaderOversizedLine(t *testing.T) {
	src := "qreg q[2];\nbarrier q[0], q[1]" + strings.Repeat(" ", MaxLineBytes) + ";\n"
	_, err := drainReader(t, src)
	if err == nil || err == io.EOF {
		t.Fatalf("oversized statement accepted: err=%v", err)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized statement error %q is not the bounded rejection", err)
	}
}

func TestStreamEmitterMatchesEmit(t *testing.T) {
	mk := func(measure bool) *circuit.Circuit {
		c := circuit.New(4)
		c.H(0)
		c.CX(0, 1)
		c.RZ(math.Pi/7, 2)
		c.Append(circuit.NewGate(circuit.U3, []int{3}, 0.1, -math.Pi, 3*math.Pi))
		c.Append(circuit.Gate{Name: circuit.Barrier, Qubits: []int{0, 1, 2, 3}})
		c.CCX(0, 1, 2)
		if measure {
			for q := 0; q < 4; q++ {
				c.Measure(q)
			}
		}
		return c
	}
	for _, measure := range []bool{false, true} {
		c := mk(measure)
		want, err := Emit(c)
		if err != nil {
			t.Fatalf("Emit: %v", err)
		}
		var sb strings.Builder
		e, err := NewEmitter(&sb, c.NumQubits, measure)
		if err != nil {
			t.Fatalf("NewEmitter: %v", err)
		}
		for _, g := range c.Gates {
			if err := e.EmitGate(g); err != nil {
				t.Fatalf("EmitGate: %v", err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if sb.String() != want {
			t.Fatalf("streamed emit diverged from Emit (measure=%v):\n--- stream ---\n%s--- Emit ---\n%s",
				measure, sb.String(), want)
		}
		if e.Gates() != len(c.Gates) {
			t.Fatalf("Gates() = %d, want %d", e.Gates(), len(c.Gates))
		}
	}
}

// TestStreamRoundTrip checks Reader∘Emitter is the identity on canonical
// sources: stream-parse a canonical program, re-emit each gate as it
// arrives, and require the output bytes to equal the input.
func TestStreamRoundTrip(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.CCX(0, 1, 2)
	c.RZ(1.25, 1)
	c.Measure(2)
	src, err := Emit(c)
	if err != nil {
		t.Fatalf("Emit: %v", err)
	}
	r := NewReader(strings.NewReader(src))
	// Prime the reader so the header (qreg/creg) is known before emitting.
	first, err := r.NextGate()
	if err != nil {
		t.Fatalf("NextGate: %v", err)
	}
	var sb strings.Builder
	e, err := NewEmitter(&sb, r.NumQubits(), r.HasCreg())
	if err != nil {
		t.Fatalf("NewEmitter: %v", err)
	}
	if err := e.EmitGate(first); err != nil {
		t.Fatalf("EmitGate: %v", err)
	}
	for {
		g, err := r.NextGate()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextGate: %v", err)
		}
		if err := e.EmitGate(g); err != nil {
			t.Fatalf("EmitGate: %v", err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if sb.String() != src {
		t.Fatalf("stream round-trip diverged:\n--- got ---\n%s--- want ---\n%s", sb.String(), src)
	}
}

// Gates reports how many gates have been emitted.
func (e *Emitter) Gates() int { return e.gates }
