package sim

import (
	"math/rand"
	"runtime"
	"testing"

	"trios/internal/circuit"
)

func benchCircuit(n, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(3) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		default:
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		}
	}
	return c
}

func BenchmarkStatevector16Qubits(b *testing.B) {
	c := benchCircuit(16, 100, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewState(16)
		if err := s.ApplyCircuit(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatevector20Qubits(b *testing.B) {
	c := benchCircuit(20, 50, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewState(20)
		if err := s.ApplyCircuit(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassicalRun(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := circuit.New(20)
	for i := 0; i < 500; i++ {
		p := rng.Perm(20)
		c.CCX(p[0], p[1], p[2])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ClassicalRun(c, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEquivalenceCheck(b *testing.B) {
	c := benchCircuit(10, 60, 4)
	d := c.Copy()
	for i := 0; i < b.N; i++ {
		ok, err := Equivalent(c, d, 1, int64(i))
		if err != nil || !ok {
			b.Fatal("equivalence failed")
		}
	}
}

func BenchmarkApplyFused16(b *testing.B) {
	c := benchCircuit(16, 100, 1)
	p, err := Fuse(c, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewState(16)
		if err := p.Run(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyFusedParallel16(b *testing.B) {
	c := benchCircuit(16, 100, 1)
	p, err := Fuse(c, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewState(16)
		if err := p.Run(s, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrajectoryEngine(b *testing.B) {
	c := benchCircuit(10, 40, 5)
	noise := PauliNoise{OneQubitError: 0.001, TwoQubitError: 0.01}
	e := &Engine{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.MonteCarlo(c, noise, 0, 1, 200, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyClifford20 measures the engine's stabilizer dispatch on a
// 20-qubit Clifford pair the dense backend would need 2^20 amplitudes for.
func BenchmarkVerifyClifford20(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	c := circuit.New(20)
	for i := 0; i < 200; i++ {
		switch rng.Intn(3) {
		case 0:
			c.H(rng.Intn(20))
		case 1:
			c.S(rng.Intn(20))
		default:
			a, t := rng.Intn(20), rng.Intn(19)
			if t >= a {
				t++
			}
			c.CX(a, t)
		}
	}
	d := c.Copy()
	e := &Engine{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := e.Verify(c, d, 2, int64(i))
		if err != nil || !v.Equivalent || v.Backend != "stabilizer" {
			b.Fatalf("verdict %+v, err %v", v, err)
		}
	}
}
