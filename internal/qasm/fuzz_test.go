package qasm

import (
	"testing"
)

// FuzzParse locks in parse.go's contract: arbitrary user input must produce
// an error, never a panic (circuit.NewGate panics on malformed gates, so the
// parser pre-validates everything it hands over). When parsing succeeds, the
// result must be internally consistent and re-serializable, and the emitted
// form must parse back — the canonicalization the compile cache hashes is a
// fixed point.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src) // must never panic
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Parse accepted %q but produced an invalid circuit: %v", src, err)
		}
		out, err := Emit(c)
		if err != nil {
			t.Fatalf("parsed circuit from %q does not re-emit: %v", src, err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("emitted form of %q does not re-parse: %v\n%s", src, err, out)
		}
		if back.NumQubits != c.NumQubits || len(back.Gates) != len(c.Gates) {
			t.Fatalf("round-trip changed shape for %q: %d/%d qubits, %d/%d gates",
				src, c.NumQubits, back.NumQubits, len(c.Gates), len(back.Gates))
		}
	})
}

// parseSeeds is FuzzParse's seed corpus, shared with
// FuzzParseMatchesReference.
var parseSeeds = []string{
	"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0], q[1];\nccx q[0], q[1], q[2];\n",
	"qreg q[2]; rz(pi/2) q[0]; u3(0.1, -pi, 3*pi) q[1]; measure q[0] -> c[0];",
	"qreg q[5]; mcx q[0], q[1], q[2], q[3], q[4]; barrier q[0], q[1];",
	"qreg q[1]; rx(-pi/4) q[0]; // comment\n",
	"creg c[2]; qreg q[2]; swap q[0], q[1];",
	"qreg q[2]; cx q[0], q[0];",
	"qreg q[2]; cp(0.5) q[0], q[1];",
	"OPENQASM 2.0; qreg r[4]; cx r[3], r[0]; measure r[3] -> c[3];",
	"qreg q[9999999999999999999];",
	"qreg q[2]; rz() q[0];",
	"qreg q[2]; rz(pi/0) q[0];",
	"qreg q[2]; h q[-1];",
	"qreg q[2]; h q[99];",
	"x q[0]; qreg q[1];",
	"qreg q[1]; qreg p[1];",
	"qreg q[2]; mcx q[0];",
	"qreg q[2]; barrier ;",
	"qreg q[2]; measure q[0];",
	"qreg q[2]; h (q[0]);",
	"qreg q[2]; u1(1e309) q[0];",
}
