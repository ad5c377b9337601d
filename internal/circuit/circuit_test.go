package circuit

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderChain(t *testing.T) {
	c := New(3)
	c.H(0).CX(0, 1).CCX(0, 1, 2).T(2).Measure(2)
	if len(c.Gates) != 5 {
		t.Fatalf("got %d gates", len(c.Gates))
	}
	if c.Gates[2].Name != CCX {
		t.Errorf("gate 2 = %v", c.Gates[2])
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAppendGrowsQubits(t *testing.T) {
	c := New(1)
	c.CX(0, 5)
	if c.NumQubits != 6 {
		t.Errorf("NumQubits = %d, want 6", c.NumQubits)
	}
}

func TestCopyIsDeep(t *testing.T) {
	c := New(2)
	c.RZ(0.5, 0).CX(0, 1)
	cp := c.Copy()
	cp.Gates[0].Params[0] = 99
	cp.Gates[1].Qubits[0] = 1
	if c.Gates[0].Params[0] != 0.5 || c.Gates[1].Qubits[0] != 0 {
		t.Error("Copy shares backing storage with original")
	}
}

func TestInverseReverses(t *testing.T) {
	c := New(2)
	c.H(0).T(0).CX(0, 1).S(1)
	inv := c.Inverse()
	if len(inv.Gates) != 4 {
		t.Fatalf("got %d gates", len(inv.Gates))
	}
	if inv.Gates[0].Name != Sdg || inv.Gates[1].Name != CX ||
		inv.Gates[2].Name != Tdg || inv.Gates[3].Name != H {
		t.Errorf("inverse gates: %v", inv.Gates)
	}
}

func TestInversePanicsOnMeasure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Measure(0).Inverse()
}

func TestStats(t *testing.T) {
	c := New(4)
	c.H(0).CX(0, 1).SWAP(1, 2).CCX(0, 1, 2).MCX([]int{0, 1, 2}, 3).Measure(3).Barrier()
	s := c.CollectStats()
	if s.Total != 6 { // barrier excluded
		t.Errorf("Total = %d, want 6", s.Total)
	}
	if s.OneQubit != 1 || s.Swaps != 1 || s.Toffolis != 1 || s.MCXs != 1 || s.Measures != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.TwoQubit != 1+3 { // cx + swap-as-3
		t.Errorf("TwoQubit = %d, want 4", s.TwoQubit)
	}
	if s.MaxArity != 4 {
		t.Errorf("MaxArity = %d", s.MaxArity)
	}
}

func TestDepth(t *testing.T) {
	c := New(3)
	// Layer 1: h0, h1 in parallel. Layer 2: cx(0,1). Layer 3: cx(1,2).
	c.H(0).H(1).CX(0, 1).CX(1, 2)
	if d := c.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	// A gate on the untouched qubit 2 in parallel would not raise depth.
	c2 := New(3)
	c2.H(0).H(1).H(2)
	if d := c2.Depth(); d != 1 {
		t.Errorf("parallel depth = %d, want 1", d)
	}
}

// TestLayersRespectDependencies checks the moment fold behind Depth and
// Draw: every gate lands after each earlier gate it shares a qubit with,
// and gates on disjoint qubits share a moment.
func TestLayersRespectDependencies(t *testing.T) {
	c := New(3)
	c.H(0).CX(0, 1).CX(1, 2).H(0)
	moment := make([]int, len(c.Gates))
	if depth := c.moments(func(i, m int) { moment[i] = m }); depth != 3 {
		t.Fatalf("depth = %d, want 3", depth)
	}
	// The second h0 follows cx01 on qubit 0, so it joins cx12's moment.
	if want := []int{1, 2, 3, 3}; !slices.Equal(moment, want) {
		t.Fatalf("moments = %v, want %v", moment, want)
	}
	for i, g := range c.Gates {
		for j := range i {
			if moment[j] >= moment[i] && slices.ContainsFunc(g.Qubits, func(q int) bool { return slices.Contains(c.Gates[j].Qubits, q) }) {
				t.Errorf("gate %d at moment %d not after gate %d at moment %d", i, moment[i], j, moment[j])
			}
		}
	}
}

// TestLayersExcludeBarriers checks that a barrier orders the gates around
// it without taking a moment, or a column of the drawing, of its own.
func TestLayersExcludeBarriers(t *testing.T) {
	c := New(2)
	c.H(0).Barrier().H(1)
	moment := make([]int, len(c.Gates))
	if depth := c.moments(func(i, m int) { moment[i] = m }); depth != 2 {
		t.Fatalf("depth = %d, want 2", depth)
	}
	if want := []int{1, 1, 2}; !slices.Equal(moment, want) {
		t.Fatalf("moments = %v, want %v", moment, want)
	}
	if got, want := c.Draw(), "q0: ─H────\nq1: ────H─\n"; got != want {
		t.Errorf("Draw =\n%s\nwant\n%s", got, want)
	}
}

func TestBarrierSynchronizesDepth(t *testing.T) {
	c := New(2)
	c.H(0).Barrier().H(1)
	// Barrier forces h1 after h0's layer.
	if d := c.Depth(); d != 2 {
		t.Errorf("Depth with barrier = %d, want 2", d)
	}
}

func TestRemap(t *testing.T) {
	c := New(2)
	c.CX(0, 1)
	r := c.Remap(5, func(q int) int { return q + 3 })
	if r.NumQubits != 5 || r.Gates[0].Qubits[0] != 3 || r.Gates[0].Qubits[1] != 4 {
		t.Errorf("Remap: %v", r)
	}
}

func TestCountName(t *testing.T) {
	c := New(3)
	c.CCX(0, 1, 2).CCX(0, 1, 2).CX(0, 1)
	if c.CountName(CCX) != 2 || c.CountName(CX) != 1 || c.CountName(H) != 0 {
		t.Error("CountName miscounts")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	c := &Circuit{NumQubits: 2, Gates: []Gate{{Name: X, Qubits: []int{5}}}}
	if err := c.Validate(); err == nil {
		t.Error("expected validation error")
	}
}

// Property: depth never exceeds gate count and equality is reflexive after
// copy, over random circuits.
func TestRandomCircuitProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 6, 40)
		if c.Depth() > len(c.Gates) {
			return false
		}
		if !c.Equal(c.Copy()) {
			return false
		}
		if err := c.Validate(); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: inverse twice is the identity transformation on the gate list
// for circuits of self-describing gates.
func TestDoubleInverseIsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 5, 30)
		return c.Inverse().Inverse().Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomCircuit builds a random unitary circuit for property tests.
func randomCircuit(rng *rand.Rand, n, gates int) *Circuit {
	c := New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.RZ(rng.Float64()*6, rng.Intn(n))
		case 3:
			a, b := twoDistinct(rng, n)
			c.CX(a, b)
		case 4:
			a, b := twoDistinct(rng, n)
			c.SWAP(a, b)
		case 5:
			if n >= 3 {
				q := rng.Perm(n)
				c.CCX(q[0], q[1], q[2])
			}
		}
	}
	return c
}

func twoDistinct(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}
