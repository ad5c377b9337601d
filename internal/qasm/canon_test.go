package qasm

import (
	"strings"
	"testing"

	"trios/internal/benchmarks"
)

// TestCanonicalNormalizes checks that comment, whitespace, and pi-spelling
// variations of the same program canonicalize to identical bytes.
func TestCanonicalNormalizes(t *testing.T) {
	a := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0]; cx q[0], q[1];
rz(pi/2) q[2];
ccx q[0], q[1], q[2];
`
	b := `OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[3];
h q[0];
cx q[0],q[1];   // trailing comment
rz(1.5707963267948966) q[2];
ccx q[0],q[1],q[2];
`
	ca, err := Canonical(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("canonical forms differ:\n%s\n--- vs ---\n%s", ca, cb)
	}
}

// TestCanonicalFixedPoint checks canonicalization is idempotent: the
// canonical form of a canonical form is itself. The compile cache depends on
// this — it hashes the canonical form, so a drifting normal form would remap
// every key on re-submission.
func TestCanonicalFixedPoint(t *testing.T) {
	for _, b := range benchmarks.All() {
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		src, err := Emit(c)
		if err != nil {
			t.Fatal(err)
		}
		once, err := Canonical(src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		twice, err := Canonical(once)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if once != twice {
			t.Fatalf("%s: canonicalization is not idempotent", b.Name)
		}
	}
}

func TestCanonicalRejectsGarbage(t *testing.T) {
	for _, src := range []string{"", "qreg q[0];", "OPENQASM 2.0; frobnicate q[1];"} {
		if _, err := Canonical(src); err == nil {
			t.Errorf("Canonical(%q) unexpectedly succeeded", src)
		}
	}
	if _, err := Canonical(strings.Repeat("x", 10)); err == nil {
		t.Error("Canonical of non-QASM text unexpectedly succeeded")
	}
}

// Canonical parses OpenQASM source and re-emits it in Emit's normal form, so
// that textually different but semantically identical programs (comments,
// whitespace, statement grouping, pi-expression spellings) serialize to the
// same bytes. The serving layer content-addresses its compile cache by
// hashing exactly this Parse∘Emit normal form — service.Resolve performs the
// two steps inline because it also needs the parsed circuit, and Canonical
// is the property-tested definition of that form (idempotent, and any change
// to it remaps every cache key).
func Canonical(src string) (string, error) {
	c, err := Parse(src)
	if err != nil {
		return "", err
	}
	return Emit(c)
}
