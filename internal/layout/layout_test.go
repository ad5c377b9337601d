package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trios/internal/circuit"
	"trios/internal/topo"
)

func TestIdentity(t *testing.T) {
	l := Identity(5)
	for i := 0; i < 5; i++ {
		if l.Phys(i) != i || l.Virt(i) != i {
			t.Fatalf("identity wrong at %d", i)
		}
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFromVirtualToPhysValidation(t *testing.T) {
	if _, err := FromVirtualToPhys([]int{0, 0}); err == nil {
		t.Error("expected duplicate error")
	}
	if _, err := FromVirtualToPhys([]int{0, 5}); err == nil {
		t.Error("expected range error")
	}
	l, err := FromVirtualToPhys([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Phys(0) != 2 || l.Virt(2) != 0 {
		t.Error("mapping wrong")
	}
}

func TestSwapPhys(t *testing.T) {
	l := Identity(4)
	l.SwapPhys(1, 3)
	if l.Phys(1) != 3 || l.Phys(3) != 1 || l.Virt(1) != 3 || l.Virt(3) != 1 {
		t.Error("swap wrong")
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCopyIndependent(t *testing.T) {
	l := Identity(3)
	c := l.Copy()
	c.SwapPhys(0, 1)
	if l.Phys(0) != 0 {
		t.Error("copy shares state")
	}
}

// Property: any sequence of SwapPhys keeps the layout a valid bijection.
func TestSwapSequenceStaysBijective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Random(8, rng)
		for i := 0; i < 30; i++ {
			a, b := rng.Intn(8), rng.Intn(8)
			if a != b {
				l.SwapPhys(a, b)
			}
		}
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInteractionWeightsCountsToffoliPairs(t *testing.T) {
	c := circuit.New(3)
	c.CCX(0, 1, 2).CX(0, 1)
	w := InteractionWeights(c)
	if w[[2]int{0, 1}] != 2 { // once from ccx, once from cx
		t.Errorf("w(0,1) = %d, want 2", w[[2]int{0, 1}])
	}
	if w[[2]int{0, 2}] != 1 || w[[2]int{1, 2}] != 1 {
		t.Errorf("toffoli pair weights wrong: %v", w)
	}
}

func TestInteractionWeightsSkipsPseudo(t *testing.T) {
	c := circuit.New(2)
	c.Barrier().Measure(0)
	if w := InteractionWeights(c); len(w) != 0 {
		t.Errorf("pseudo-ops produced weights: %v", w)
	}
}

func TestGreedyPlacesInteractingQubitsClose(t *testing.T) {
	g := topo.Line20()
	c := circuit.New(3)
	// Heavy interaction between 0 and 1; light with 2.
	for i := 0; i < 5; i++ {
		c.CX(0, 1)
	}
	c.CX(1, 2)
	l, err := Greedy(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	d := g.DistTable()
	if d.At(l.Phys(0), l.Phys(1)) != 1 {
		t.Errorf("heavily interacting pair placed %d apart", d.At(l.Phys(0), l.Phys(1)))
	}
	if d.At(l.Phys(1), l.Phys(2)) > 2 {
		t.Errorf("connected pair placed %d apart", d.At(l.Phys(1), l.Phys(2)))
	}
}

func TestGreedyHandlesToffoliTrio(t *testing.T) {
	g := topo.Johannesburg()
	c := circuit.New(3)
	c.CCX(0, 1, 2)
	l, err := Greedy(c, g)
	if err != nil {
		t.Fatal(err)
	}
	d := g.DistTable()
	total := d.At(l.Phys(0), l.Phys(1)) + d.At(l.Phys(1), l.Phys(2)) + d.At(l.Phys(0), l.Phys(2))
	if total > 4 {
		t.Errorf("trio placed with total distance %d", total)
	}
}

func TestGreedyTooManyQubits(t *testing.T) {
	g := topo.Line(3)
	c := circuit.New(5)
	if _, err := Greedy(c, g); err == nil {
		t.Error("expected error for oversize circuit")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	g := topo.Grid5x4()
	c := circuit.New(6)
	c.CCX(0, 1, 2).CX(2, 3).CCX(3, 4, 5)
	l1, err := Greedy(c, g)
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := Greedy(c, g)
	for v := 0; v < 20; v++ {
		if l1.Phys(v) != l2.Phys(v) {
			t.Fatal("greedy placement not deterministic")
		}
	}
}

func TestRandomLayoutSeeded(t *testing.T) {
	a := Random(10, rand.New(rand.NewSource(1)))
	b := Random(10, rand.New(rand.NewSource(1)))
	for v := 0; v < 10; v++ {
		if a.Phys(v) != b.Phys(v) {
			t.Fatal("same seed gave different layouts")
		}
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGreedyOnAllPaperTopologies(t *testing.T) {
	c := circuit.New(8)
	for i := 0; i+2 < 8; i++ {
		c.CCX(i, i+1, i+2)
	}
	for _, g := range topo.PaperTopologies() {
		l, err := Greedy(c, g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
	}
}

// Virt returns the virtual qubit currently held by physical qubit p.
func (l *Layout) Virt(p int) int { return l.p2v[p] }

// Greedy builds an initial placement that tries to keep strongly-interacting
// logical qubits close on the device. It seeds the most-connected logical
// qubit at the device's highest-degree physical qubit, then repeatedly
// places the unplaced logical qubit with the strongest ties to already
// placed ones at the free physical qubit minimizing weighted distance to its
// placed partners. Remaining (non-interacting) qubits fill free positions
// nearest the placed region.
func Greedy(c *circuit.Circuit, g *topo.Graph) (*Layout, error) {
	return GreedyWeighted(c, g, nil)
}
