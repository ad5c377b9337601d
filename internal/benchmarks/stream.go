package benchmarks

import (
	"io"
	"math/rand"
	"strconv"
)

// Streaming workload generators: io.Readers that synthesize arbitrarily
// long OpenQASM 2.0 programs on the fly, so a million-gate compile can be
// driven without ever materializing the circuit (or even its source text).
// Generation is deterministic per (n, gates, seed), which lets benchmarks
// replay the identical stream into different compile arms.

// chunkGates is how many gate statements are rendered per refill; it only
// bounds the generator's internal buffer, not the stream length.
const chunkGates = 256

// qasmStream renders gates lazily into a small reusable buffer.
type qasmStream struct {
	pending []byte
	off     int
	next    func(buf []byte) ([]byte, bool) // appends the next chunk; false when exhausted
	done    bool
}

func (s *qasmStream) Read(p []byte) (int, error) {
	for s.off >= len(s.pending) {
		if s.done {
			return 0, io.EOF
		}
		s.pending, s.done = s.next(s.pending[:0])
		s.off = 0
		s.done = s.done || len(s.pending) == 0
		if len(s.pending) == 0 && s.done {
			return 0, io.EOF
		}
	}
	n := copy(p, s.pending[s.off:])
	s.off += n
	return n, nil
}

// header renders the canonical program header for n qubits.
func header(buf []byte, n int) []byte {
	buf = append(buf, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q["...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, "];\n"...)
	return buf
}

func appendGate1(buf []byte, name string, q int) []byte {
	buf = append(buf, name...)
	buf = append(buf, " q["...)
	buf = strconv.AppendInt(buf, int64(q), 10)
	buf = append(buf, "];\n"...)
	return buf
}

func appendGate2(buf []byte, name string, a, b int) []byte {
	buf = append(buf, name...)
	buf = append(buf, " q["...)
	buf = strconv.AppendInt(buf, int64(a), 10)
	buf = append(buf, "], q["...)
	buf = strconv.AppendInt(buf, int64(b), 10)
	buf = append(buf, "];\n"...)
	return buf
}

// StreamCliffordT streams a uniformly random Clifford+T program on n
// qubits totalling exactly `gates` gate statements — the fault-tolerant
// instruction mix {h, s, sdg, cx, t, tdg}, dominated by two-qubit gates so
// the router stays the bottleneck stage.
func StreamCliffordT(n, gates int, seed int64) io.Reader {
	rng := rand.New(rand.NewSource(seed))
	emitted := 0
	wroteHeader := false
	return &qasmStream{next: func(buf []byte) ([]byte, bool) {
		if !wroteHeader {
			buf = header(buf, n)
			wroteHeader = true
		}
		for i := 0; i < chunkGates && emitted < gates; i++ {
			switch k := rng.Intn(10); {
			case k < 2:
				buf = appendGate1(buf, "h", rng.Intn(n))
			case k < 3:
				buf = appendGate1(buf, "s", rng.Intn(n))
			case k < 4:
				buf = appendGate1(buf, "sdg", rng.Intn(n))
			case k < 5:
				buf = appendGate1(buf, "t", rng.Intn(n))
			case k < 6:
				buf = appendGate1(buf, "tdg", rng.Intn(n))
			default:
				a := rng.Intn(n)
				b := rng.Intn(n)
				for b == a {
					b = rng.Intn(n)
				}
				buf = appendGate2(buf, "cx", a, b)
			}
			emitted++
		}
		return buf, emitted >= gates
	}}
}
