package benchmarks

import (
	"bytes"
	"io"
	"testing"

	"trios/internal/qasm"
)

func countStreamGates(t *testing.T, r io.Reader) (gates, qubits int) {
	t.Helper()
	sr := qasm.NewReader(r)
	for {
		_, err := sr.NextGate()
		if err == io.EOF {
			return gates, sr.NumQubits()
		}
		if err != nil {
			t.Fatalf("gate %d: %v", gates, err)
		}
		gates++
	}
}

func TestStreamGeneratorsExactCountAndParse(t *testing.T) {
	for _, want := range []int{1, 100, 5000} {
		gates, qubits := countStreamGates(t, StreamCliffordT(12, want, 1))
		if gates != want {
			t.Fatalf("cliffordt: %d gates, want exactly %d", gates, want)
		}
		if qubits != 12 {
			t.Fatalf("cliffordt: register %d, want 12", qubits)
		}
	}
}

func TestStreamGeneratorsDeterministic(t *testing.T) {
	a, err := io.ReadAll(StreamCliffordT(10, 2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(StreamCliffordT(10, 2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("StreamCliffordT is not deterministic for a fixed seed")
	}
	c, err := io.ReadAll(StreamCliffordT(10, 2000, 8))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("StreamCliffordT ignores the seed")
	}
}
