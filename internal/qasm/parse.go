package qasm

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"trios/internal/circuit"
)

// Parse reads OpenQASM 2.0 source limited to the dialect Emit produces plus
// common variations: a single quantum register, optional classical register,
// qelib1 gate applications with literal or pi-expression parameters,
// measure, and barrier. Comments (//) are ignored. It runs Reader's
// statement scanner, without Reader's limit on line length.
func Parse(src string) (*circuit.Circuit, error) {
	p := newParser(strings.NewReader(src), len(src)+1)
	for {
		more, err := p.line()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	if p.c == nil {
		return nil, errNoQreg
	}
	return p.c, nil
}

var errNoQreg = errors.New("qasm: no qreg declaration found")

// parser is the statement scanner behind Parse and Reader. It reads the
// source a line at a time and parses each statement in place, in the
// scanner's buffer, appending its gate to c with the operands copied into
// c's slab: a gate statement costs no allocation of its own.
type parser struct {
	scan    *bufio.Scanner
	maxLine int
	c       *circuit.Circuit // nil until the qreg declaration
	regName string
	hasCreg bool
	lineNo  int
	// Scratch reused from statement to statement: a gate's operand text
	// with its white space removed (needed only when the operands sit on
	// both sides of the parameter list), and its qubits and parameters.
	refs   []byte
	qubits []int
	params []float64
}

// newParser scans r with lines of up to maxLine bytes, counting the newline.
func newParser(r io.Reader, maxLine int) *parser {
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, min(4096, maxLine)), maxLine)
	return &parser{scan: scan, maxLine: maxLine}
}

// line parses the next source line. It reports false at the end of the
// input or on an error.
func (p *parser) line() (bool, error) {
	if !p.scan.Scan() {
		err := p.scan.Err()
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("qasm: line %d exceeds %d bytes", p.lineNo+1, p.maxLine)
		}
		return false, err
	}
	p.lineNo++
	line := p.scan.Bytes()
	if i := bytes.Index(line, []byte("//")); i >= 0 {
		line = line[:i]
	}
	for len(line) > 0 {
		stmt := line
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			stmt, line = line[:i], line[i+1:]
		} else {
			line = nil
		}
		if stmt = bytes.TrimSpace(stmt); len(stmt) == 0 {
			continue
		}
		if err := p.stmt(stmt); err != nil {
			return false, fmt.Errorf("qasm: line %d: %w", p.lineNo, err)
		}
	}
	return true, nil
}

// stmt parses one statement: s is trimmed, non-empty and holds no ';'.
func (p *parser) stmt(s []byte) error {
	switch {
	case hasPrefix(s, "OPENQASM"), hasPrefix(s, "include"):
		return nil
	case hasPrefix(s, "qreg"):
		name, size, err := parseReg(bytes.TrimSpace(s[len("qreg"):]))
		if err != nil {
			return err
		}
		if p.c != nil {
			return errors.New("multiple qreg declarations")
		}
		p.regName = string(name)
		p.c = circuit.New(size)
		return nil
	case hasPrefix(s, "creg"):
		p.hasCreg = true
		_, _, err := parseReg(bytes.TrimSpace(s[len("creg"):]))
		return err
	}
	if p.c == nil {
		return errors.New("gate before qreg declaration")
	}
	switch {
	case hasPrefix(s, "measure"):
		ref := bytes.TrimSpace(s[len("measure"):])
		if i := bytes.Index(ref, []byte("->")); i >= 0 {
			ref = ref[:i]
		}
		q, err := p.qubitRef(bytes.TrimSpace(ref))
		if err != nil {
			return err
		}
		p.c.Measure(q)
		return nil
	case hasPrefix(s, "barrier"):
		qs := p.qubits[:0]
		for list, more := bytes.TrimSpace(s[len("barrier"):]), true; more; {
			var ref []byte
			ref, list, more = bytes.Cut(list, []byte(","))
			q, err := p.qubitRef(bytes.TrimSpace(ref))
			if err != nil {
				return err
			}
			qs = append(qs, q)
		}
		p.qubits = qs
		// A repeated operand would make the router's gate rebuild panic.
		if i := circuit.FirstRepeat(qs); i >= 0 {
			return fmt.Errorf("gate %v repeats qubit %d", circuit.Barrier, qs[i])
		}
		p.c.Barrier(qs...)
		return nil
	}
	return p.gate(s)
}

// gate parses a gate application: name[(params)] q[i](, q[j])*. The
// parameter list runs from the first '(' to the first ')' and may sit
// anywhere in the statement; what is left around it, split at white
// space, is the gate name followed by the operand text, whose white space
// is insignificant.
func (p *parser) gate(s []byte) error {
	head, tail := s, []byte(nil)
	params := p.params[:0]
	if open := bytes.IndexByte(s, '('); open >= 0 {
		closeIdx := bytes.IndexByte(s, ')')
		if closeIdx < open {
			return fmt.Errorf("unbalanced parentheses in %q", s)
		}
		for list, more := s[open+1:closeIdx], true; more; {
			var ps []byte
			ps, list, more = bytes.Cut(list, []byte(","))
			v, err := parseParam(bytes.TrimSpace(ps))
			if err != nil {
				return err
			}
			params = append(params, v)
		}
		head, tail = s[:open], s[closeIdx+1:]
	}
	p.params = params
	// The first field of head, or of tail when head has none, names the
	// gate; everything after it is operand text, its white space ignored.
	name, refs := field(head)
	if len(name) == 0 {
		name, refs = field(tail)
	} else if !blank(tail) {
		if blank(refs) {
			refs = tail
		} else { // operand text on both sides of the parameter list
			p.refs = appendNonSpace(appendNonSpace(p.refs[:0], refs), tail)
			refs = p.refs
		}
	}
	if len(name) == 0 || blank(refs) {
		return fmt.Errorf("malformed statement %q", s)
	}
	n, ok := circuit.ParseName(string(name))
	if !ok {
		return fmt.Errorf("unknown gate %q", name)
	}
	qs := p.qubits[:0]
	for more := true; more; {
		var q int
		var err error
		if q, refs, more, err = p.operand(refs); err != nil {
			return err
		}
		qs = append(qs, q)
	}
	p.qubits = qs
	if a := n.Arity(); a >= 0 && len(qs) != a {
		return fmt.Errorf("gate %v expects %d qubits, got %d", n, a, len(qs))
	}
	if n == circuit.MCX && len(qs) < 2 {
		return fmt.Errorf("mcx expects at least 2 qubits, got %d", len(qs))
	}
	// NewGate panics on malformed gates; user input must error instead.
	if i := circuit.FirstRepeat(qs); i >= 0 {
		return fmt.Errorf("gate %v repeats qubit %d", n, qs[i])
	}
	if pc := n.ParamCount(); len(params) != pc {
		return fmt.Errorf("gate %v expects %d params, got %d", n, pc, len(params))
	}
	p.c.AppendNew(n, qs, params...)
	return nil
}

// operand parses the first `name[i]` reference of a gate's operand text,
// up to the first comma, and returns its qubit and the text after that
// comma (more is false when there was none). White space anywhere in a
// gate's operands is insignificant, so the reference is read as qubitRef
// would read it with its white space removed — in one pass, without
// copying it — and fails with the same errors.
func (p *parser) operand(text []byte) (q int, rest []byte, more bool, err error) {
	ref := text
	if i := bytes.IndexByte(text, ','); i >= 0 {
		ref, rest, more = text[:i], text[i+1:], true
	}
	// The name: every byte before the first '['.
	i, nameLen := 0, 0
	isReg, isC := true, true // the name so far is a prefix of regName, of "c"
	for ; i < len(ref) && ref[i] != '['; i++ {
		if w := spaceWidth(ref[i:]); w > 0 {
			i += w - 1
			continue
		}
		c := ref[i]
		if c == ']' {
			return 0, nil, false, refError("malformed qubit reference %q", ref)
		}
		isReg = isReg && nameLen < len(p.regName) && p.regName[nameLen] == c
		isC = isC && nameLen == 0 && c == 'c'
		nameLen++
	}
	// The index: from there to the first ']', as atoi reads it.
	var (
		mag           uint64
		neg, bad      bool
		digits, width int
	)
	const limit = 1 << 63 // the magnitude of math.MinInt64
	for i++; i < len(ref) && ref[i] != ']'; i++ {
		if w := spaceWidth(ref[i:]); w > 0 {
			i += w - 1
			continue
		}
		switch c := ref[i]; {
		case width == 0 && (c == '+' || c == '-'):
			neg = c == '-'
		case '0' <= c && c <= '9':
			d := uint64(c - '0')
			bad = bad || mag > (limit-d)/10 // beyond the range of int
			mag = mag*10 + d
			digits++
		default:
			bad = true
		}
		width++
	}
	switch {
	case i >= len(ref):
		return 0, nil, false, refError("malformed qubit reference %q", ref)
	case p.regName != "" && !(isReg && nameLen == len(p.regName)) && !(isC && nameLen == 1):
		name, _, _ := bytes.Cut(appendNonSpace(nil, ref), []byte("["))
		return 0, nil, false, fmt.Errorf("unknown register %q", name)
	case bad || digits == 0 || mag >= limit || neg && mag != 0:
		return 0, nil, false, refError("bad qubit index in %q", ref)
	}
	return int(mag), rest, more, nil
}

// refError quotes a gate operand in an error as the reference parser did:
// with its white space removed.
func refError(format string, ref []byte) error {
	return fmt.Errorf(format, appendNonSpace(nil, ref))
}

// parseReg parses `name[size]`, ignoring anything after the ']'.
func parseReg(s []byte) ([]byte, int, error) {
	open := bytes.IndexByte(s, '[')
	closeIdx := bytes.IndexByte(s, ']')
	if open < 0 || closeIdx < open {
		return nil, 0, fmt.Errorf("malformed register %q", s)
	}
	size, ok := atoi(s[open+1 : closeIdx])
	if !ok || size <= 0 {
		return nil, 0, fmt.Errorf("bad register size in %q", s)
	}
	return bytes.TrimSpace(s[:open]), size, nil
}

// qubitRef parses a measure or barrier operand `name[i]`, checking the
// register name if known. The classical register's name "c" is accepted
// too, and anything after the ']' is ignored. Unlike in a gate's operand
// list (see operand), white space inside the index is an error.
func (p *parser) qubitRef(s []byte) (int, error) {
	open := bytes.IndexByte(s, '[')
	closeIdx := bytes.IndexByte(s, ']')
	if open < 0 || closeIdx < open {
		return 0, fmt.Errorf("malformed qubit reference %q", s)
	}
	if name := bytes.TrimSpace(s[:open]); p.regName != "" && string(name) != p.regName && string(name) != "c" {
		return 0, fmt.Errorf("unknown register %q", name)
	}
	idx, ok := atoi(s[open+1 : closeIdx])
	if !ok || idx < 0 {
		return 0, fmt.Errorf("bad qubit index in %q", s)
	}
	return idx, nil
}

// atoi is strconv.Atoi on bytes: an optional sign, then decimal digits,
// within the range of int.
func atoi(s []byte) (int, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	const limit = 1 << 63 // the magnitude of math.MinInt64
	var n uint64
	for _, c := range s {
		d := uint64(c - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if !neg && n == limit {
		return 0, false
	}
	v := int(n)
	if neg {
		v = -v
	}
	return v, true
}

// parseParam evaluates a parameter literal: a float, pi, -pi, pi/N, -pi/N,
// or N*pi forms commonly found in QASM output. A value that is not finite
// (nan, inf, or a form that overflows, such as 1e308*pi) is refused: it is
// neither an OpenQASM 2.0 real nor a rotation.
func parseParam(s []byte) (float64, error) {
	// No float literal contains "pi", so the pi forms skip straight to
	// their own parsing (a failed ParseFloat allocates its error).
	if !bytes.Contains(s, []byte("pi")) {
		if v, err := strconv.ParseFloat(string(s), 64); err == nil {
			return finite(v, s)
		}
	}
	orig := s
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg = true
		s = bytes.TrimSpace(s[1:])
	}
	val := 0.0
	switch {
	case string(s) == "pi":
		val = pi
	case hasPrefix(s, "pi/"):
		d, err := strconv.ParseFloat(string(s[3:]), 64)
		if err != nil || d == 0 {
			return 0, fmt.Errorf("bad parameter %q", s)
		}
		val = pi / d
	case bytes.HasSuffix(s, []byte("*pi")):
		m, err := strconv.ParseFloat(string(s[:len(s)-3]), 64)
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
	return finite(val, orig)
}

// finite returns v, or the bad-parameter error for literal s when v is
// NaN or infinite.
func finite(v float64, s []byte) (float64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad parameter %q", s)
	}
	return v, nil
}

const pi = 3.141592653589793

func hasPrefix(s []byte, prefix string) bool {
	return len(s) >= len(prefix) && string(s[:len(prefix)]) == prefix
}

// field returns the first field of s as strings.Fields splits it (a run of
// bytes between white space, as unicode.IsSpace defines it) and what
// follows it. The field is empty when s holds none.
func field(s []byte) (f, rest []byte) {
	i := 0
	for i < len(s) {
		w := spaceWidth(s[i:])
		if w == 0 {
			break
		}
		i += w
	}
	j := i
	for j < len(s) && spaceWidth(s[j:]) == 0 {
		j++
	}
	return s[i:j], s[j:]
}

// blank reports whether s is all white space.
func blank(s []byte) bool {
	for i := 0; i < len(s); {
		w := spaceWidth(s[i:])
		if w == 0 {
			return false
		}
		i += w
	}
	return true
}

// appendNonSpace appends s to dst without its white space.
func appendNonSpace(dst, s []byte) []byte {
	for i := 0; i < len(s); i++ {
		if w := spaceWidth(s[i:]); w > 0 {
			i += w - 1
			continue
		}
		dst = append(dst, s[i])
	}
	return dst
}

// spaceWidth returns the byte width of the white-space rune s starts
// with, or 0. Stepping a byte at a time through a rune that is not white
// space is safe: a UTF-8 continuation byte never starts a rune, so it
// never reads as white space.
func spaceWidth(s []byte) int {
	if c := s[0]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return multiByteSpaceWidth(s)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// multiByteSpaceWidth is spaceWidth for a non-ASCII first byte, kept out
// of line so that spaceWidth inlines.
func multiByteSpaceWidth(s []byte) int {
	r, w := utf8.DecodeRune(s)
	if unicode.IsSpace(r) {
		return w
	}
	return 0
}
