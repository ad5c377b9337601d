// Package qasm serializes circuits to OpenQASM 2.0 and parses the subset of
// OpenQASM 2.0 the Trios toolchain emits, so compiled programs round-trip
// through files and interoperate with other quantum toolchains.
package qasm

import (
	"fmt"
	"strconv"
	"strings"

	"trios/internal/circuit"
)

// Emit renders a circuit as OpenQASM 2.0 source. Gates map to the standard
// qelib1 mnemonics. MCX has no qelib1 form and is emitted with the Trios
// dialect mnemonic `mcx controls..., target` (qiskit-compatible naming),
// which Parse round-trips; decompose it first for strict interoperability
// with other toolchains. A gate whose Name is not a known kind is an error.
func Emit(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	line := appendHeader(make([]byte, 0, 128), c.NumQubits, c.CountName(circuit.Measure) > 0)
	// Compiled programs average 20-25 bytes a line; growing past the
	// estimate is correct, just slower.
	b.Grow(len(line) + 32*len(c.Gates))
	b.Write(line)
	for i, g := range c.Gates {
		if !g.Name.Valid() {
			return "", unknownGate(i, g.Name)
		}
		line = append(AppendGate(line[:0], g), '\n')
		b.Write(line)
	}
	return b.String(), nil
}

// AppendGate appends g's OpenQASM 2.0 statement, without a newline, to dst
// and returns the extended slice. It is the one gate renderer: Emit and
// Emitter both write its bytes. Operands print as q[i]; parameters print
// as fmt's %.17g would, which round-trips every float64 exactly. It renders
// any Name: an unknown one prints as Name.String, which Parse rejects, so
// the emitters refuse such gates before rendering them.
func AppendGate(dst []byte, g circuit.Gate) []byte {
	switch g.Name {
	case circuit.Measure:
		q := int64(g.Qubits[0])
		dst = append(dst, "measure q["...)
		dst = strconv.AppendInt(dst, q, 10)
		dst = append(dst, "] -> c["...)
		dst = strconv.AppendInt(dst, q, 10)
		return append(dst, "];"...)
	case circuit.Barrier:
		dst = append(dst, "barrier"...)
	default:
		dst = append(dst, g.Name.String()...)
		if len(g.Params) > 0 {
			dst = append(dst, '(')
			for i, p := range g.Params {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = strconv.AppendFloat(dst, p, 'g', 17, 64)
			}
			dst = append(dst, ')')
		}
	}
	dst = append(dst, ' ')
	for i, q := range g.Qubits {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, "q["...)
		dst = strconv.AppendInt(dst, int64(q), 10)
		dst = append(dst, ']')
	}
	return append(dst, ';')
}

// appendHeader appends the program header for an n-qubit register, with a
// classical register of the same size when withCreg is set.
func appendHeader(dst []byte, n int, withCreg bool) []byte {
	dst = append(dst, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q["...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, "];\n"...)
	if withCreg {
		dst = append(dst, "creg c["...)
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, "];\n"...)
	}
	return dst
}

// unknownGate is the error for the i-th gate when its name has no mnemonic.
func unknownGate(i int, n circuit.Name) error {
	return fmt.Errorf("qasm: gate %d: no OpenQASM mnemonic for %v", i, n)
}
