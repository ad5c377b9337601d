package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	builtBin  string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// buildExperiments compiles the binary once per test binary invocation and
// shares it among the tests. main() here is flag.Parse-and-os.Exit shaped,
// so the tests exercise the real executable instead of a refactored main.
func buildExperiments(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "experiments-test-"); buildErr != nil {
			return
		}
		bin := filepath.Join(buildDir, "experiments")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		builtBin = bin
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
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
