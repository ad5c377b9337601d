package qasm

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"trios/internal/circuit"
)

// parseReference is the strings-based parser that Parse and Reader
// replaced, kept as the reference they are held to: FuzzParseMatchesReference
// requires the same verdict, gates, register size and error on any input.
func parseReference(src string) (*circuit.Circuit, error) {
	var c *circuit.Circuit
	regName := ""
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := refStmt(stmt, &c, &regName); err != nil {
				return nil, fmt.Errorf("qasm: line %d: %w", lineNo+1, err)
			}
		}
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	return c, nil
}

func refStmt(stmt string, c **circuit.Circuit, regName *string) error {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"), strings.HasPrefix(stmt, "include"):
		return nil
	case strings.HasPrefix(stmt, "qreg"):
		name, size, err := refReg(strings.TrimSpace(strings.TrimPrefix(stmt, "qreg")))
		if err != nil {
			return err
		}
		if *c != nil {
			return fmt.Errorf("multiple qreg declarations")
		}
		*regName = name
		*c = circuit.New(size)
		return nil
	case strings.HasPrefix(stmt, "creg"):
		_, _, err := refReg(strings.TrimSpace(strings.TrimPrefix(stmt, "creg")))
		return err
	}
	if *c == nil {
		return fmt.Errorf("gate before qreg declaration")
	}
	if strings.HasPrefix(stmt, "measure") {
		rest := strings.TrimSpace(strings.TrimPrefix(stmt, "measure"))
		parts := strings.SplitN(rest, "->", 2)
		q, err := refQubitRef(strings.TrimSpace(parts[0]), *regName)
		if err != nil {
			return err
		}
		(*c).Measure(q)
		return nil
	}
	if strings.HasPrefix(stmt, "barrier") {
		rest := strings.TrimSpace(strings.TrimPrefix(stmt, "barrier"))
		var qs []int
		for _, ref := range strings.Split(rest, ",") {
			q, err := refQubitRef(strings.TrimSpace(ref), *regName)
			if err != nil {
				return err
			}
			qs = append(qs, q)
		}
		seen := make(map[int]bool, len(qs))
		for _, q := range qs {
			if seen[q] {
				return fmt.Errorf("gate %v repeats qubit %d", circuit.Barrier, q)
			}
			seen[q] = true
		}
		(*c).Append(circuit.Gate{Name: circuit.Barrier, Qubits: qs})
		return nil
	}

	// Gate application: name[(params)] q[i](, q[j])*
	head := stmt
	var params []float64
	if open := strings.IndexByte(stmt, '('); open >= 0 {
		closeIdx := strings.IndexByte(stmt, ')')
		if closeIdx < open {
			return fmt.Errorf("unbalanced parentheses in %q", stmt)
		}
		for _, ps := range strings.Split(stmt[open+1:closeIdx], ",") {
			v, err := refParam(strings.TrimSpace(ps))
			if err != nil {
				return err
			}
			params = append(params, v)
		}
		head = stmt[:open] + " " + stmt[closeIdx+1:]
	}
	fields := strings.Fields(head)
	if len(fields) < 2 {
		return fmt.Errorf("malformed statement %q", stmt)
	}
	name, ok := circuit.ParseName(fields[0])
	if !ok {
		return fmt.Errorf("unknown gate %q", fields[0])
	}
	var qubits []int
	for _, ref := range strings.Split(strings.Join(fields[1:], ""), ",") {
		q, err := refQubitRef(strings.TrimSpace(ref), *regName)
		if err != nil {
			return err
		}
		qubits = append(qubits, q)
	}
	if a := name.Arity(); a >= 0 && len(qubits) != a {
		return fmt.Errorf("gate %v expects %d qubits, got %d", name, a, len(qubits))
	}
	if name == circuit.MCX && len(qubits) < 2 {
		return fmt.Errorf("mcx expects at least 2 qubits, got %d", len(qubits))
	}
	// NewGate panics on malformed gates; user input must error instead.
	seen := make(map[int]bool, len(qubits))
	for _, q := range qubits {
		if seen[q] {
			return fmt.Errorf("gate %v repeats qubit %d", name, q)
		}
		seen[q] = true
	}
	if p := name.ParamCount(); len(params) != p {
		return fmt.Errorf("gate %v expects %d params, got %d", name, p, len(params))
	}
	(*c).Append(circuit.NewGate(name, qubits, params...))
	return nil
}

// refReg parses `name[size]`.
func refReg(s string) (string, int, error) {
	open := strings.IndexByte(s, '[')
	closeIdx := strings.IndexByte(s, ']')
	if open < 0 || closeIdx < open {
		return "", 0, fmt.Errorf("malformed register %q", s)
	}
	size, err := strconv.Atoi(s[open+1 : closeIdx])
	if err != nil || size <= 0 {
		return "", 0, fmt.Errorf("bad register size in %q", s)
	}
	return strings.TrimSpace(s[:open]), size, nil
}

// refQubitRef parses `name[i]`, checking the register name if known.
func refQubitRef(s, regName string) (int, error) {
	open := strings.IndexByte(s, '[')
	closeIdx := strings.IndexByte(s, ']')
	if open < 0 || closeIdx < open {
		return 0, fmt.Errorf("malformed qubit reference %q", s)
	}
	if name := strings.TrimSpace(s[:open]); regName != "" && name != regName && name != "c" {
		return 0, fmt.Errorf("unknown register %q", name)
	}
	idx, err := strconv.Atoi(s[open+1 : closeIdx])
	if err != nil || idx < 0 {
		return 0, fmt.Errorf("bad qubit index in %q", s)
	}
	return idx, nil
}

// refParam evaluates a parameter literal: a float, pi, -pi, pi/N, -pi/N,
// or N*pi forms commonly found in QASM output. A value that is not finite
// is refused, quoting the whole literal.
func refParam(s string) (float64, error) {
	v, err := refValue(s)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("bad parameter %q", s)
	}
	return v, err
}

func refValue(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = strings.TrimSpace(s[1:])
	}
	val := 0.0
	switch {
	case s == "pi":
		val = pi
	case strings.HasPrefix(s, "pi/"):
		d, err := strconv.ParseFloat(s[3:], 64)
		if err != nil || d == 0 {
			return 0, fmt.Errorf("bad parameter %q", s)
		}
		val = pi / d
	case strings.HasSuffix(s, "*pi"):
		m, err := strconv.ParseFloat(s[:len(s)-3], 64)
		if err != nil {
			return 0, fmt.Errorf("bad parameter %q", s)
		}
		val = m * pi
	default:
		return 0, fmt.Errorf("bad parameter %q", s)
	}
	if neg {
		val = -val
	}
	return val, nil
}

// FuzzParseMatchesReference holds the byte-level scanner to the reference
// parser: on any input, Parse and Reader accept exactly when the reference
// accepts, and then produce the same gates (parameters bit for bit) and
// register size; when it rejects, they return the same error, "qasm: line
// N:" prefix included. Reader refuses lines of MaxLineBytes or more, so on
// inputs with such a line it is only required to refuse.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	var mcx strings.Builder
	mcx.WriteString("qreg q[8000];\nmcx q[0]")
	for q := 1; mcx.Len() < 64<<10; q++ {
		fmt.Fprintf(&mcx, ", q[%d]", q)
	}
	mcx.WriteString(";\n")
	for _, s := range []string{
		"qreg\tq[3];\th\tq[0];\tcx\tq[0],\tq[1];\t\n",
		"qreg q[2];; h q[0];;;cx q[0],q[1];;\n;;",
		"qreg q[2]; h q[0]; // trailing; x q[1]\ncx q[0], q[1]; //\n//\n",
		"qreg q[1]; u1(pi/4) q[0]; u1(-pi/4) q[0]; u1(0.25*pi) q[0]; u1(- pi) q[0]; u1(pi/-2) q[0]; u1(pi/ 4) q[0];",
		"qreg q[1]; u2(pi/4,-pi/4) q[0]; u3(pi,pi/2,-1*pi) q[0]; rz(2 * pi) q[0];",
		"qreg q[2]; cx q[0], q[5]; measure q[9] -> c[9]; barrier q[0], q[12];",
		"qreg q[2]; h q[+1]; h q[-0]; h q[007]; h q[ 1]; h q [1];",
		"qreg q[2]; cx q [0] , q [ 1 ]; cx q[1 ],q[0]junk;",
		"qreg q[1]; (pi)u1 q[0]; u1 q[0] (pi); u1 q(pi)[0];",
		"qreg q[1]; u1((0) q[0];",
		"qreg q[1]; u1)0( q[0];",
		"qreg q[2] junk; h c[1]; measure q[0] -> c[0] -> x;",
		"qreg q[2]; barrier q[0], q[0], q[1];",
		"qreg q[20]; mcx q[0],q[1],q[2],q[3],q[4],q[5],q[6],q[7],q[8],q[9],q[3],q[10];",
		"qreg q[20]; mcx q[0],q[1],q[2],q[3],q[4],q[5],q[6],q[7],q[8],q[9],q[10];",
		"qreg q[2]; h q[0];\u0085cx q[0],　q[1];",
		"qreg q[2]; h\xc2 q[0];",
		"qreg q[2];\r\nh q[0];\r\n\r\ncx q[0], q[1]\r",
		"qreg q[9223372036854775807]; h q[9223372036854775806];",
		"qreg q[2]; h q[9223372036854775807];",
		"qreg q[2]; h q[9223372036854775808];",
		"qreg q[2]; h q[-9223372036854775808];",
		"qreg q[2]; u1(nan) q[0]; u1(-Inf) q[0]; u1(0x1p-2) q[0]; u1(1_0) q[0];",
		"qreg q[4]; cx q [ 1 ] , q[ + 3 ]; h q[\u00a01]; h q[1\u2003]; h\u3000q[2];",
		"qreg r e g[3]; h r e g[0]; h reg[1]; h c[2]; h c [2]; h cc[2];",
		"qreg q[2]; h q]0[; h [0]; h q[0]x]; h q[]; h q[+]; h q[1+];",
		"qreg q[2]; cx q[0]junk, q[1]; h q[0]]; h q[0][1]; h q[[0]];",
		"qreg q[2]; h q[99999999999999999999]; h q[-0]; h q[- 0]; h q[0 0 1];",
		"qreg q[2]; measure q[1 0]; measure q [1]; barrier q[ 1]; barrier q [1] , q[0];",
		"qregister[3]; creg; h q[0];",
		"OPENQASMx; includefoo; qreg [2]; h anything[1];",
		mcx.String(),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, werr := parseReference(src)
		got, err := Parse(src)
		sameParse(t, "Parse", src, got, err, want, werr)

		r := NewReader(strings.NewReader(src))
		var gates []circuit.Gate
		var rerr error
		for rerr == nil {
			var g circuit.Gate
			if g, rerr = r.NextGate(); rerr == nil {
				gates = append(gates, g)
			}
		}
		var rc *circuit.Circuit
		if rerr == io.EOF {
			rc, rerr = &circuit.Circuit{NumQubits: r.NumQubits(), Gates: gates}, nil
		}
		for line := range strings.SplitSeq(src, "\n") {
			if len(line) >= MaxLineBytes {
				if rerr == nil {
					t.Fatalf("Reader accepted a line of %d bytes", len(line))
				}
				return
			}
		}
		sameParse(t, "Reader", src, rc, rerr, want, werr)
	})
}

// sameParse fails t unless got and err equal the reference's result.
func sameParse(t *testing.T, who, src string, got *circuit.Circuit, err error, want *circuit.Circuit, werr error) {
	t.Helper()
	if len(src) > 200 {
		src = src[:200] + "..."
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s on %q: error %v, reference error %v", who, src, err, werr)
	}
	if werr != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("%s on %q: error %q, reference error %q", who, src, err, werr)
		}
		return
	}
	if got.NumQubits != want.NumQubits || len(got.Gates) != len(want.Gates) {
		t.Fatalf("%s on %q: %d gates on %d qubits, reference %d on %d",
			who, src, len(got.Gates), got.NumQubits, len(want.Gates), want.NumQubits)
	}
	for i, g := range got.Gates {
		w := want.Gates[i]
		same := g.Name == w.Name && slices.Equal(g.Qubits, w.Qubits) && len(g.Params) == len(w.Params)
		for j := 0; same && j < len(g.Params); j++ {
			same = math.Float64bits(g.Params[j]) == math.Float64bits(w.Params[j])
		}
		if !same {
			t.Fatalf("%s on %q: gate %d is %v %v, reference %v %v", who, src, i, g, g.Params, w, w.Params)
		}
	}
}
