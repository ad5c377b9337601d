package sim

import (
	"math"
	"testing"

	"trios/internal/circuit"
)

// TestTrajectoryDeterministicAcrossWorkers: the parallel Monte-Carlo must
// return exactly the same estimate for any worker count at a fixed seed —
// per-shot seeds make the sample independent of scheduling.
func TestTrajectoryDeterministicAcrossWorkers(t *testing.T) {
	c := toffoli110Circuit()
	noise := PauliNoise{OneQubitError: 0.01, TwoQubitError: 0.05, ReadoutError: 0.02}
	base, err := (&Engine{Workers: 1}).MonteCarlo(c, noise, 7, ^uint64(0), 600, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := (&Engine{Workers: workers}).MonteCarlo(c, noise, 7, ^uint64(0), 600, 9)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("workers=%d: success %v, workers=1 gave %v", workers, got, base)
		}
	}
}

// TestTrajectoryAgreesWithSerial: the parallel sampler estimates the same
// distribution as the serial path, so the two must agree within binomial
// sampling error.
func TestTrajectoryAgreesWithSerial(t *testing.T) {
	c := toffoli110Circuit()
	noise := PauliNoise{OneQubitError: 0.005, TwoQubitError: 0.03}
	const shots = 6000
	serial, err := MonteCarloSuccess(c, noise, 7, ^uint64(0), shots, 4)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Engine{Workers: 4}).MonteCarlo(c, noise, 7, ^uint64(0), shots, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 6-sigma combined binomial tolerance.
	tol := 6 * math.Sqrt(serial*(1-serial)/shots) * math.Sqrt2
	if math.Abs(serial-parallel) > tol {
		t.Errorf("serial %v vs parallel %v (tol %v)", serial, parallel, tol)
	}
}

// TestTrajectoryCliffordBeyondDenseCap: Clifford circuits dispatch to the
// stabilizer backend, so Monte-Carlo runs past the dense backend's cap —
// here 30 qubits, beyond MaxQubits, which only the stabilizer backend can
// run.
func TestTrajectoryCliffordBeyondDenseCap(t *testing.T) {
	const n = 30
	c := circuit.New(n)
	c.X(0)
	for q := 1; q < n; q++ {
		c.CX(0, q)
	}
	// A pair of cancelling Hadamard layers keeps it non-classical-looking
	// without changing the outcome.
	c.H(3)
	c.H(3)
	for q := 0; q < n; q++ {
		c.Measure(q)
	}
	expect := uint64(1)<<n - 1

	if _, err := MonteCarloSuccess(c, PauliNoise{}, expect, ^uint64(0), 10, 1); err == nil {
		t.Fatal("serial path should refuse 30 qubits")
	}

	e := &Engine{Workers: 2}
	p, err := e.MonteCarlo(c, PauliNoise{}, expect, ^uint64(0), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("noiseless Clifford success = %v, want 1", p)
	}

	// Under noise the success rate must drop but stay positive.
	noisy, err := e.MonteCarlo(c, PauliNoise{OneQubitError: 0.002, TwoQubitError: 0.01, ReadoutError: 0.01}, expect, ^uint64(0), 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if noisy >= 1 || noisy < 0.3 {
		t.Errorf("noisy Clifford success = %v, want in (0.3, 1)", noisy)
	}
}

// TestTrajectoryDenseAboveSerialCap: non-Clifford circuits now run up to
// MaxQubits on the dense backend (the serial path capped at 14). The T gate
// leaves the stabilizer backend unable to run it, so the dense one did.
func TestTrajectoryDenseAboveSerialCap(t *testing.T) {
	const n = 15
	c := circuit.New(n)
	c.X(0)
	c.T(0) // phase on |1>, invisible to measurement but breaks Clifford
	c.CCX(0, 1, 2)
	e := &Engine{Workers: 2}
	p, err := e.MonteCarlo(c, PauliNoise{}, 1, ^uint64(0), 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("noiseless success = %v, want 1", p)
	}
}

// TestTrajectoryMeasurePolicy: the parallel path enforces the same
// measured-subset semantics and mid-circuit rejection as the serial path.
func TestTrajectoryMeasurePolicy(t *testing.T) {
	c := circuit.New(2)
	c.X(0)
	c.H(1)
	c.Measure(0)
	p, err := (&Engine{}).MonteCarlo(c, PauliNoise{}, 1, ^uint64(0), 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("measured-subset success = %v, want 1", p)
	}
	bad := circuit.New(2)
	bad.Measure(0)
	bad.H(0)
	if _, err := (&Engine{}).MonteCarlo(bad, PauliNoise{}, 0, 1, 10, 5); err == nil {
		t.Error("expected mid-circuit measurement error")
	}
}

func TestShotSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for shot := 0; shot < 10000; shot++ {
		s := shotSeed(12345, shot)
		if seen[s] {
			t.Fatalf("duplicate shot seed at %d", shot)
		}
		seen[s] = true
	}
}
