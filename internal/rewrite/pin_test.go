package rewrite

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"trios/internal/circuit"
	"trios/internal/qasm"
)

const saturateDigestsFixture = "testdata/saturate_digests.txt"

// pinCases is how many seeded circuits TestSaturateDigestsPinned saturates.
const pinCases = 300

// pinCircuit builds a random circuit over n >= 4 qubits from every gate
// kind the rules read: the named 1q gates, rotations at multiples of π/4
// (exact or nudged), u2/u3, cx/cz/swap/cp, ccx, mcx, barriers and
// measures, with the inverse pairs and sandwiches the rules target.
func pinCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	oneQ := []circuit.Name{
		circuit.I, circuit.H, circuit.X, circuit.Y, circuit.Z, circuit.S, circuit.Sdg,
		circuit.T, circuit.Tdg, circuit.SX, circuit.SXdg,
	}
	angle := func() float64 {
		a := float64(rng.Intn(16)-8) * math.Pi / 4
		if rng.Intn(2) == 0 {
			a += rng.Float64() * 0.01
		}
		return a
	}
	others := func(q, k int) []int {
		qs := []int{q}
		for len(qs) < k {
			if p := rng.Intn(n); !slices.Contains(qs, p) {
				qs = append(qs, p)
			}
		}
		return qs
	}
	for len(c.Gates) < gates {
		q := rng.Intn(n)
		switch k := rng.Intn(20); {
		case k < 6:
			c.Append(circuit.NewGate(oneQ[rng.Intn(len(oneQ))], []int{q}))
		case k < 9:
			r := []circuit.Name{circuit.RX, circuit.RY, circuit.RZ, circuit.U1}[rng.Intn(4)]
			c.Append(circuit.NewGate(r, []int{q}, angle()))
		case k < 10:
			if rng.Intn(2) == 0 {
				c.Append(circuit.NewGate(circuit.U2, []int{q}, angle(), angle()))
			} else {
				c.Append(circuit.NewGate(circuit.U3, []int{q}, angle(), angle(), angle()))
			}
		case k < 13:
			c.Append(circuit.NewGate(circuit.CX, others(q, 2)))
		case k < 14:
			g := []circuit.Name{circuit.CZ, circuit.SWAP}[rng.Intn(2)]
			c.Append(circuit.NewGate(g, others(q, 2)))
		case k < 15:
			c.Append(circuit.NewGate(circuit.CP, others(q, 2), angle()))
		case k < 17:
			qs := others(q, 3)
			c.Append(circuit.NewGate(circuit.CCX, qs))
			if rng.Intn(2) == 0 {
				// ccx · x(control) · ccx, the control absorption's shape.
				c.Append(circuit.NewGate(circuit.X, []int{qs[rng.Intn(2)]}))
				c.Append(circuit.NewGate(circuit.CCX, []int{qs[1], qs[0], qs[2]}))
			}
		case k < 18:
			c.Append(circuit.NewGate(circuit.MCX, others(q, 3+rng.Intn(n-2))))
		case k < 19:
			// The sandwiches and adjacent pairs the local rules match.
			qs := others(q, 2)
			mid := circuit.NewGate(oneQ[rng.Intn(len(oneQ))], qs[rng.Intn(2):][:1])
			var outer circuit.Gate
			switch rng.Intn(4) {
			case 0: // h · A · h
				mid = circuit.NewGate(mid.Name, []int{q})
				outer = circuit.NewGate(circuit.H, []int{q})
			case 1: // h(t) · cx · h(t), h(q) · cz · h(q)
				outer = circuit.NewGate(circuit.H, qs[1:])
				mid = circuit.NewGate([]circuit.Name{circuit.CX, circuit.CZ}[rng.Intn(2)], qs)
			case 2: // cx · A · cx
				outer = circuit.NewGate(circuit.CX, qs)
			default: // swap · cx and cx · swap
				outer = circuit.NewGate(circuit.SWAP, qs)
				mid = circuit.NewGate(circuit.CX, []int{qs[1], qs[0]})
				if rng.Intn(2) == 0 {
					c.Append(outer, mid)
					continue
				}
				c.Append(mid, outer)
				continue
			}
			c.Append(outer, mid, outer)
		default:
			if rng.Intn(2) == 0 {
				c.Append(circuit.NewGate(circuit.Measure, []int{q}))
			} else {
				c.Append(circuit.NewGate(circuit.Barrier, others(q, 1+rng.Intn(n))))
			}
		}
		// Occasionally mirror the last gate to seed cancellation chains.
		if last := c.Gates[len(c.Gates)-1]; rng.Intn(3) == 0 && !last.IsPseudo() {
			c.Append(last.Inverse())
		}
	}
	return c
}

// pinCase is one saturation TestSaturateDigestsPinned digests: circuit
// seed i+1 under the i-th combination of adjacency, budget and pop order.
type pinCase struct {
	name string
	in   *circuit.Circuit
	opts Options
}

func linePair(a, b int) bool { return a-b == 1 || b-a == 1 }

func pinCaseAt(i int) pinCase {
	rng := rand.New(rand.NewSource(int64(i + 1)))
	in := pinCircuit(rng, 4+rng.Intn(4), 10+rng.Intn(150))
	var opts Options
	adj, budget := "none", "default"
	if i%2 == 1 {
		opts.AdjacentOK, adj = linePair, "line"
	}
	if (i/2)%2 == 1 {
		opts.MaxRewrites = 1 + i%13
		budget = fmt.Sprint(opts.MaxRewrites)
	}
	opts.PopSeed = []int64{0, 1, 977}[(i/4)%3]
	return pinCase{
		name: fmt.Sprintf("%03d adj=%s budget=%s pop=%d", i, adj, budget, opts.PopSeed),
		in:   in,
		opts: opts,
	}
}

// digestSaturation is the SHA-256 of out's QASM and of st rendered with
// its rule counts in name order.
func digestSaturation(t *testing.T, out *circuit.Circuit, st Stats) string {
	t.Helper()
	src, err := qasm.Emit(out)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(src))
	names := make([]string, 0, len(st.Applied))
	for name := range st.Applied {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, st.Applied[name])
	}
	fmt.Fprintf(h, "rewrites=%d exhausted=%t gates=%d/%d two-qubit=%d/%d\n",
		st.Rewrites, st.BudgetExhausted, st.GatesIn, st.GatesOut, st.TwoQubitIn, st.TwoQubitOut)
	return hex.EncodeToString(h.Sum(nil))
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

// TestSaturateDigestsPinned pins the engine's output bit for bit: 300
// seeded circuits with every gate kind, saturated with and without a line
// adjacency, under the default budget and a small one, and in FIFO and two
// permuted pop orders. It names the first case whose output QASM or Stats
// changed, with that case's new fixture line.
func TestSaturateDigestsPinned(t *testing.T) {
	want := readDigests(t, saturateDigestsFixture)
	var changed []string
	for i := 0; i < pinCases; i++ {
		pc := pinCaseAt(i)
		out, st := Saturate(pc.in, pc.opts)
		if got := digestSaturation(t, out, st); want[pc.name] != got {
			changed = append(changed, pc.name+" "+got)
		}
	}
	if len(changed) > 0 {
		t.Errorf("%d of %d saturations changed; the first is now: %s", len(changed), pinCases, changed[0])
	}
	if len(want) != pinCases {
		t.Errorf("fixture pins %d cases, the test runs %d", len(want), pinCases)
	}
}
