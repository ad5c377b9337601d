package main

import (
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildExperiments compiles the binary once per test binary invocation.
// main() here is flag.Parse-and-os.Exit shaped, so the smoke tests exercise
// the real executable instead of refactoring the experiment driver.
func buildExperiments(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestTable1Smoke compiles and runs the cheapest end-to-end experiment and
// pins exit code plus stable output fragments.
func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the experiments binary")
	}
	bin := buildExperiments(t)
	out, err := exec.Command(bin, "-exp", "table1").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -exp table1: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"==== table1 ====", "cnx_dirty-11", "grovers-9", "bv-20"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the experiments binary")
	}
	bin := buildExperiments(t)
	out, err := exec.Command(bin, "-version").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -version: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "trios ") || !strings.Contains(string(out), "go1.") {
		t.Fatalf("-version output = %q", out)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the experiments binary")
	}
	bin := buildExperiments(t)
	if err := exec.Command(bin, "-no-such-flag").Run(); err == nil {
		t.Fatal("bad flag should exit non-zero")
	}
	// A misspelt experiment name must fail before running anything, and the
	// error must list the valid names; so must the -exp help text.
	out, err := exec.Command(bin, "-exp", "table1,tabel1").CombinedOutput()
	if err == nil {
		t.Fatalf("-exp tabel1 exited zero:\n%s", out)
	}
	text := string(out)
	if strings.Contains(text, "==== table1 ====") {
		t.Errorf("ran experiments before rejecting the name:\n%s", text)
	}
	help, _ := exec.Command(bin, "-h").CombinedOutput()
	for _, name := range slices.Concat([]string{"all"}, experimentNames, trajectoryNames) {
		if !strings.Contains(text, name) {
			t.Errorf("error does not list %q:\n%s", name, text)
		}
		if !strings.Contains(string(help), name) {
			t.Errorf("-exp help does not list %q:\n%s", name, help)
		}
	}
}
