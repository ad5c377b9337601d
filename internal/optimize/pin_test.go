package optimize

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"trios/internal/circuit"
	"trios/internal/qasm"
)

const consolidateDigestsFixture = "testdata/consolidate_digests.txt"

// consolidateCases is how many seeded circuits TestConsolidateDigestsPinned
// consolidates.
const consolidateCases = 300

// runAngle draws a rotation angle: half the time uniform in (-2π, 2π),
// otherwise a multiple of π/4 (0 and ±π included), so that run products
// hit exact zeros and the ±π branch cuts of the angle recovery.
func runAngle(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return (2*rng.Float64() - 1) * 2 * math.Pi
	}
	return float64(rng.Intn(17)-8) * math.Pi / 4
}

// runCircuit builds random single-qubit runs of rx/ry/rz/u1/u2/u3/h/s/t/sx
// on n qubits, cut by cx, barriers and measures.
func runCircuit(rng *rand.Rand, n, runs int) *circuit.Circuit {
	c := circuit.New(n)
	for r := 0; r < runs; r++ {
		q := rng.Intn(n)
		for k := 1 + rng.Intn(6); k > 0; k-- {
			switch rng.Intn(10) {
			case 0:
				c.RX(runAngle(rng), q)
			case 1:
				c.RY(runAngle(rng), q)
			case 2:
				c.RZ(runAngle(rng), q)
			case 3:
				c.U1(runAngle(rng), q)
			case 4:
				c.U2(runAngle(rng), runAngle(rng), q)
			case 5:
				c.U3(runAngle(rng), runAngle(rng), runAngle(rng), q)
			case 6:
				c.H(q)
			case 7:
				c.S(q)
			case 8:
				c.T(q)
			default:
				c.SX(q)
			}
		}
		switch p := rng.Intn(n); {
		case p == q || rng.Intn(4) == 0:
			// Let the run continue into the next one on the same qubit.
		case rng.Intn(6) == 0:
			c.Barrier(q, p)
		case rng.Intn(6) == 0:
			c.Measure(q)
		default:
			c.CX(q, p)
		}
	}
	return c
}

// TestConsolidateDigestsPinned pins Consolidate1Q's output bit for bit: the
// SHA-256 of the QASM it makes of each of 300 seeded run circuits. It names
// the first circuit whose output changed, with its new fixture line.
func TestConsolidateDigestsPinned(t *testing.T) {
	want := readDigests(t, consolidateDigestsFixture)
	var changed []string
	for i := 0; i < consolidateCases; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		in := runCircuit(rng, 1+rng.Intn(3), 1+rng.Intn(40))
		out, err := Consolidate1Q(in)
		if err != nil {
			t.Fatal(err)
		}
		src, err := qasm.Emit(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(src))
		name := fmt.Sprintf("%03d", i)
		if got := hex.EncodeToString(sum[:]); want[name] != got {
			changed = append(changed, name+" "+got)
		}
	}
	if len(changed) > 0 {
		t.Errorf("%d of %d consolidations changed; the first is now: %s", len(changed), consolidateCases, changed[0])
	}
	if len(want) != consolidateCases {
		t.Errorf("fixture pins %d cases, the test runs %d", len(want), consolidateCases)
	}
}

// readDigests reads a fixture of "<case> <digest>" lines; # lines are
// comments.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
