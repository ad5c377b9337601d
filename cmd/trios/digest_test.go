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
)

// compileDigestsFixture holds one line per sweep cell: the cell's five
// fields (benchmark, topology, pipeline, toffoli, optimize) and the SHA-256
// of everything `trios` writes for it. A failing cell prints its line in
// the same format.
const compileDigestsFixture = "testdata/compile_digests.txt"

// TestCompileDigestsPinned pins the bytes `trios` emits across the paper's
// sweep: every -list benchmark on johannesburg, grid, line and clusters,
// under both pipelines, every -toffoli mode and -optimize off and on (528
// programs). Any change to compilation or to QASM rendering shows here.
func TestCompileDigestsPinned(t *testing.T) {
	want := readCompileDigests(t)
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

func readCompileDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(compileDigestsFixture)
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
			t.Fatalf("%s: malformed line %q", compileDigestsFixture, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("%s pins no cells", compileDigestsFixture)
	}
	return want
}
