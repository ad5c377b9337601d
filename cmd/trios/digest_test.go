package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"trios/internal/benchmarks"
	"trios/internal/device"
)

// compileDigestsFixture holds one line per sweep cell: the cell's five
// fields (benchmark, topology, pipeline, toffoli, optimize) and the SHA-256
// of everything `trios` writes for it. A failing cell prints its line in
// the same format.
const compileDigestsFixture = "testdata/compile_digests.txt"

// routerDigestsFixture is compileDigestsFixture's counterpart for the
// search routers: one line per cell of TestRouterDigestsPinned (benchmark,
// topology, pipeline, router, cost, seed) and the digest of its output.
const routerDigestsFixture = "testdata/router_digests.txt"

// TestCompileDigestsPinned pins the bytes `trios` emits across the paper's
// sweep: every -list benchmark on johannesburg, grid, line and clusters,
// under both pipelines, every -toffoli mode and -optimize off and on (528
// programs). Any change to compilation or to QASM rendering shows here.
func TestCompileDigestsPinned(t *testing.T) {
	want := readCompileDigests(t, compileDigestsFixture)
	seen := 0
	for _, b := range benchmarks.All() {
		for _, topology := range []string{"johannesburg", "grid", "line", "clusters"} {
			for _, pipeline := range []string{"baseline", "trios"} {
				for _, toffoli := range []string{"auto", "6", "8"} {
					for _, optimize := range []string{"off", "on"} {
						cell := strings.Join([]string{b.Name, topology, pipeline, toffoli, optimize}, " ")
						args := []string{"-benchmark", b.Name, "-topology", topology, "-pipeline", pipeline, "-toffoli", toffoli}
						if optimize == "on" {
							args = append(args, "-optimize")
						}
						var out bytes.Buffer
						if err := run(args, &out); err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						sum := sha256.Sum256(out.Bytes())
						got := hex.EncodeToString(sum[:])
						seen++
						if want[cell] != got {
							t.Errorf("%s: digest changed; now: %s %s", cell, cell, got)
						}
					}
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("swept %d cells, fixture pins %d", seen, len(want))
	}
}

// TestRouterDigestsPinned pins the bytes `trios` emits under the two search
// routers, which TestCompileDigestsPinned (direct router only) does not
// reach: every -list benchmark on johannesburg, grid, line and clusters,
// under both pipelines, -router stochastic and lookahead, hop costs and the
// topology's registry calibration, and seeds 1 and 2 (704 programs).
func TestRouterDigestsPinned(t *testing.T) {
	want := readCompileDigests(t, routerDigestsFixture)
	seen := 0
	for _, b := range benchmarks.All() {
		for _, topology := range []string{"johannesburg", "grid", "line", "clusters"} {
			cal, err := device.ForDevice(topology)
			if err != nil {
				t.Fatal(err)
			}
			for _, pipeline := range []string{"baseline", "trios"} {
				for _, router := range []string{"stochastic", "lookahead"} {
					for _, cost := range []string{"hops", cal.Name} {
						for _, seed := range []string{"1", "2"} {
							cell := strings.Join([]string{b.Name, topology, pipeline, router, cost, seed}, " ")
							args := []string{"-benchmark", b.Name, "-topology", topology, "-pipeline", pipeline, "-router", router, "-seed", seed}
							if cost != "hops" {
								args = append(args, "-calibration", cost)
							}
							var out bytes.Buffer
							if err := run(args, &out); err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							sum := sha256.Sum256(out.Bytes())
							got := hex.EncodeToString(sum[:])
							seen++
							if want[cell] != got {
								t.Errorf("%s: digest changed; now: %s %s", cell, cell, got)
							}
						}
					}
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("swept %d cells, fixture pins %d", seen, len(want))
	}
}

// readCompileDigests reads a digest fixture: one "<cell> <digest>" line per
// cell, with blank and '#' lines skipped.
func readCompileDigests(t *testing.T, path string) map[string]string {
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
	if len(want) == 0 {
		t.Fatalf("%s pins no cells", path)
	}
	return want
}
