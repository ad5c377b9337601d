package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJohannesburgShape(t *testing.T) {
	g := Johannesburg()
	if g.NumQubits() != 20 {
		t.Fatalf("qubits = %d", g.NumQubits())
	}
	// 4 rows x 4 horizontal edges + 7 verticals = 23 edges.
	if g.NumEdges() != 23 {
		t.Errorf("edges = %d, want 23", g.NumEdges())
	}
	for _, e := range [][2]int{{0, 1}, {3, 4}, {0, 5}, {7, 12}, {14, 19}, {18, 19}} {
		if !g.Connected(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	for _, e := range [][2]int{{0, 6}, {4, 5}, {2, 7}, {11, 16}} {
		if g.Connected(e[0], e[1]) {
			t.Errorf("unexpected edge %v", e)
		}
	}
	if !g.IsConnectedGraph() {
		t.Error("johannesburg should be connected")
	}
}

func TestGridShape(t *testing.T) {
	g := Grid5x4()
	if g.NumQubits() != 20 {
		t.Fatalf("qubits = %d", g.NumQubits())
	}
	// 4 rows x 4 + 5 cols x 3 = 16 + 15 = 31 edges.
	if g.NumEdges() != 31 {
		t.Errorf("edges = %d, want 31", g.NumEdges())
	}
	if !g.Connected(0, 1) || !g.Connected(0, 5) || g.Connected(4, 5) {
		t.Error("grid wiring wrong")
	}
}

func TestLineShape(t *testing.T) {
	g := Line20()
	if g.NumQubits() != 20 || g.NumEdges() != 19 {
		t.Fatalf("line: %v", g)
	}
	if !g.Connected(0, 1) || g.Connected(0, 2) {
		t.Error("line wiring wrong")
	}
}

func TestClustersShape(t *testing.T) {
	g := Clusters5x4()
	if g.NumQubits() != 20 {
		t.Fatalf("qubits = %d", g.NumQubits())
	}
	// 4 clusters x C(5,2)=10 + 4 ring links = 44.
	if g.NumEdges() != 44 {
		t.Errorf("edges = %d, want 44", g.NumEdges())
	}
	if !g.Connected(0, 4) || !g.Connected(4, 5) || g.Connected(0, 5) {
		t.Error("cluster wiring wrong")
	}
	if !g.Connected(19, 0) {
		t.Error("cluster ring should close 19-0")
	}
	if !g.IsConnectedGraph() {
		t.Error("clusters should be connected")
	}
}

func TestTwoClustersSingleLink(t *testing.T) {
	g := Clusters(2, 3)
	// 2 x C(3,2)=3 + 1 link = 7 edges (no double link for 2 clusters).
	if g.NumEdges() != 7 {
		t.Errorf("edges = %d, want 7", g.NumEdges())
	}
}

func TestFullyConnected(t *testing.T) {
	g := FullyConnected(5)
	if g.NumEdges() != 10 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	if !g.Triangle(0, 2, 4) {
		t.Error("complete graph has all triangles")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"johannesburg", "grid", "line", "clusters", "full"} {
		g, err := ByName(name)
		if err != nil || g.NumQubits() != 20 {
			t.Errorf("ByName(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph("t", 3)
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { g.AddEdge(0, 0) })
	mustPanic(func() { g.AddEdge(0, 9) })
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate: no-op
	if g.NumEdges() != 1 || g.Degree(0) != 1 {
		t.Error("duplicate edge changed the graph")
	}
}

// TestNewGraphSizeLimit: a graph holds 0 to 255 qubits, so qubit indices
// and hop distances fit the byte tables the routers score with.
func TestNewGraphSizeLimit(t *testing.T) {
	for _, n := range []int{-1, 256} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGraph(%d) did not panic", n)
				}
			}()
			NewGraph("t", n)
		}()
	}
	g := Line(255)
	if d := g.DistTable().Slab8()[254]; d != 254 {
		t.Errorf("byte distance across Line(255) = %d, want 254", d)
	}
}

func TestDistances(t *testing.T) {
	g := Line(5)
	d := g.Distances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if int(d[i]) != want {
			t.Errorf("d[%d] = %d, want %d", i, d[i], want)
		}
	}
	// Disconnected qubit.
	g2 := NewGraph("t", 3)
	g2.AddEdge(0, 1)
	if d := g2.Distances(0); d[2] != -1 {
		t.Errorf("unreachable distance = %d, want -1", d[2])
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	g := Johannesburg()
	d := g.DistTable()
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatalf("asymmetric distance (%d,%d)", i, j)
			}
		}
	}
	if d.At(0, 19) <= 0 {
		t.Error("distant qubits should have positive distance")
	}
}

func TestShortestPathValid(t *testing.T) {
	gs := []*Graph{Johannesburg(), Grid5x4(), Line20(), Clusters5x4()}
	for _, g := range gs {
		d := g.DistTable()
		for src := 0; src < g.NumQubits(); src += 3 {
			for dst := 0; dst < g.NumQubits(); dst += 3 {
				p := g.ShortestPath(src, dst)
				if len(p) != d.At(src, dst)+1 {
					t.Fatalf("%s: path %d->%d length %d, want %d", g.Name(), src, dst, len(p)-1, d.At(src, dst))
				}
				if p[0] != src || p[len(p)-1] != dst {
					t.Fatalf("%s: path endpoints wrong: %v", g.Name(), p)
				}
				for i := 0; i+1 < len(p); i++ {
					if !g.Connected(p[i], p[i+1]) {
						t.Fatalf("%s: path step (%d,%d) not an edge", g.Name(), p[i], p[i+1])
					}
				}
			}
		}
	}
}

func TestShortestPathTieBreakHookUsed(t *testing.T) {
	g := Grid(3, 3) // multiple shortest paths corner to corner
	called := false
	g.ShortestPathTieBreak(0, 8, func(cands []int32) int {
		called = true
		return len(cands) - 1
	})
	if !called {
		t.Error("tie-break hook never consulted on a grid")
	}
}

func TestWeightedPathPrefersLightEdges(t *testing.T) {
	// Square 0-1-3, 0-2-3 where the 0-1 edge is heavy.
	g := NewGraph("t", 4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	w := func(a, b int) float64 {
		if (a == 0 && b == 1) || (a == 1 && b == 0) {
			return 10
		}
		return 1
	}
	p := g.WeightedPath(0, 3, w)
	if len(p) != 3 || p[1] != 2 {
		t.Errorf("weighted path = %v, want through 2", p)
	}
}

func TestWeightedPathUnreachable(t *testing.T) {
	g := NewGraph("t", 3)
	g.AddEdge(0, 1)
	if p := g.WeightedPath(0, 2, func(a, b int) float64 { return 1 }); p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
}

func TestLinearTrio(t *testing.T) {
	g := Line(5)
	if m, ok := g.LinearTrio(1, 2, 3); !ok || m != 2 {
		t.Errorf("LinearTrio(1,2,3) = %d, %v", m, ok)
	}
	if m, ok := g.LinearTrio(2, 1, 3); !ok || m != 2 {
		t.Errorf("LinearTrio(2,1,3) = %d, %v", m, ok)
	}
	if _, ok := g.LinearTrio(0, 2, 4); ok {
		t.Error("disconnected trio reported linear")
	}
	full := FullyConnected(4)
	if _, ok := full.LinearTrio(0, 1, 2); !ok {
		t.Error("triangle should count as linear")
	}
}

func TestTriangle(t *testing.T) {
	g := Clusters5x4()
	if !g.Triangle(0, 1, 2) {
		t.Error("intra-cluster trio should be a triangle")
	}
	if Johannesburg().Triangle(0, 1, 2) {
		t.Error("johannesburg has no triangles on a row")
	}
}

// Property: on every paper topology, weighted path with unit weights has the
// same length as the BFS shortest path.
func TestWeightedMatchesBFSUnitWeights(t *testing.T) {
	g := Johannesburg()
	unit := func(a, b int) float64 { return 1 }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src, dst := rng.Intn(20), rng.Intn(20)
		bfs := g.ShortestPath(src, dst)
		dij := g.WeightedPath(src, dst, unit)
		return len(bfs) == len(dij)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWeightedPathEdgesValid(t *testing.T) {
	g := Clusters5x4()
	w := func(a, b int) float64 { return float64(a+b) / 10 }
	p := g.WeightedPath(0, 17, w)
	if p == nil || p[0] != 0 || p[len(p)-1] != 17 {
		t.Fatalf("path = %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.Connected(p[i], p[i+1]) {
			t.Fatalf("step (%d,%d) not an edge", p[i], p[i+1])
		}
	}
}

func TestEdgesSorted(t *testing.T) {
	g := Line(4)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("edges = %v", es)
	}
	for i := 1; i < len(es); i++ {
		if es[i][0] < es[i-1][0] {
			t.Error("edges not sorted")
		}
	}
}

func TestRing(t *testing.T) {
	g := Ring(6)
	if g.NumEdges() != 6 || !g.Connected(5, 0) {
		t.Error("ring wiring wrong")
	}
	if d := g.Distances(0); d[3] != 3 || d[5] != 1 {
		t.Errorf("ring distances: %v", d)
	}
}

// IsConnectedGraph reports whether every qubit is reachable from qubit 0.
func (g *Graph) IsConnectedGraph() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.adj[q] {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == g.n
}
