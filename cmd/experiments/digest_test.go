package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const experimentDigestsFixture = "testdata/experiment_digests.txt"

// TestExperimentDigestsPinned pins the repository's research output: it
// runs `experiments -exp all -json F` and compares the SHA-256 of each
// `==== name ====` block of stdout, and of each top-level section of F,
// with the committed fixture, naming every experiment whose bytes changed.
// The `wrote F` line before the first block carries the temp path, so no
// block covers it.
func TestExperimentDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the experiments binary")
	}
	bin := buildExperiments(t)
	jsonPath := filepath.Join(t.TempDir(), "all.json")
	out, err := exec.Command(bin, "-exp", "all", "-json", jsonPath).Output()
	if err != nil {
		t.Fatalf("experiments -exp all: %v", err)
	}
	got := map[string]string{}
	var name string
	var block []byte
	flush := func() {
		if name != "" {
			got["stdout "+name] = digest(block)
		}
	}
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if h, ok := bytes.CutPrefix(line, []byte("==== ")); ok {
			flush()
			name, block = strings.TrimSuffix(string(h), " ====\n"), nil
		}
		block = append(block, line...)
	}
	flush()
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		t.Fatal(err)
	}
	for k, v := range sections {
		got["json "+k] = digest(v)
	}

	want := readDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: not in %s; add: %s %s", k, experimentDigestsFixture, k, got[k])
		case w != got[k]:
			t.Errorf("%s: digest changed; now: %s %s", k, k, got[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but no longer produced", k)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readDigests reads the fixture: one "<stdout|json> <name> <digest>" line
// per block, with blank and '#' lines skipped.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(experimentDigestsFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", experimentDigestsFixture, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
