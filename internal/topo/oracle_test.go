package topo

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The per-query BFS routines the oracle replaced, kept verbatim as the
// ground truth the oracle equivalence tests compare against on every
// registry device.

// bfsDistancesInto runs the BFS from src, writing hop distances into
// dist (len n, -1 for unreachable).
func bfsDistancesInto(g *Graph, src int, dist []int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[q] {
			if dist[nb] < 0 {
				dist[nb] = dist[q] + 1
				queue = append(queue, nb)
			}
		}
	}
}

// DistancesBFS is the allocating per-query BFS behind Distances.
func (g *Graph) DistancesBFS(src int) []int {
	dist := make([]int, g.n)
	bfsDistancesInto(g, src, dist)
	return dist
}

// AllPairsDistancesBFS is the matrix construction, one BFS per row.
func (g *Graph) AllPairsDistancesBFS() [][]int {
	d := make([][]int, g.n)
	for i := 0; i < g.n; i++ {
		d[i] = g.DistancesBFS(i)
	}
	return d
}

// ShortestPathTieBreakBFS is the BFS-per-query path walk behind
// ShortestPathTieBreak. Its candidate enumeration order defines the
// contract the oracle's candidate table reproduces.
func (g *Graph) ShortestPathTieBreakBFS(src, dst int, prefer func(cands []int) int) []int {
	if src == dst {
		return []int{src}
	}
	distTo := g.DistancesBFS(dst)
	if distTo[src] < 0 {
		return nil
	}
	path := make([]int, 0, distTo[src]+1)
	path = append(path, src)
	cur := src
	cands := make([]int, 0, 4)
	for cur != dst {
		cands = cands[:0]
		for _, nb := range g.adj[cur] {
			if distTo[nb] == distTo[cur]-1 {
				cands = append(cands, nb)
			}
		}
		next := cands[0]
		if prefer != nil && len(cands) > 1 {
			next = cands[prefer(cands)]
		} else {
			for _, c := range cands[1:] {
				if c < next {
					next = c
				}
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// registryDevices returns every named device shape the repo routes on, plus
// small synthetic and disconnected graphs, so oracle equivalence is checked
// against the legacy BFS on all of them.
func registryDevices() []*Graph {
	gs := PaperTopologies()
	gs = append(gs,
		FullyConnected(20),
		Ring(7),
		Line(9),
		Grid(3, 4),
		Clusters(3, 3),
	)
	// Disconnected: two separate triangles.
	d := NewGraph("two-triangles", 6)
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	d.AddEdge(0, 2)
	d.AddEdge(3, 4)
	d.AddEdge(4, 5)
	d.AddEdge(3, 5)
	gs = append(gs, d)
	// Single qubit and empty graphs: degenerate but must not crash.
	gs = append(gs, NewGraph("lonely", 1))
	return gs
}

// row32 converts a shared int32 slab row to []int for comparison against the
// legacy BFS tables.
func row32(row []int32) []int {
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}

func TestOracleDistancesMatchBFS(t *testing.T) {
	for _, g := range registryDevices() {
		want := g.AllPairsDistancesBFS()
		tab := g.DistTable()
		if tab.NumQubits() != g.NumQubits() || len(tab.Slab()) != g.NumQubits()*g.NumQubits() {
			t.Fatalf("%s: DistTable shape wrong", g.Name())
		}
		for src := 0; src < g.NumQubits(); src++ {
			if !reflect.DeepEqual(row32(g.Distances(src)), want[src]) {
				t.Fatalf("%s: Distances(%d) diverges from BFS", g.Name(), src)
			}
			if !reflect.DeepEqual(row32(tab.Row(src)), want[src]) {
				t.Fatalf("%s: DistTable.Row(%d) diverges from BFS", g.Name(), src)
			}
			for dst := 0; dst < g.NumQubits(); dst++ {
				if g.Dist(src, dst) != want[src][dst] {
					t.Fatalf("%s: Dist(%d,%d)=%d, BFS %d", g.Name(), src, dst, g.Dist(src, dst), want[src][dst])
				}
				if tab.At(src, dst) != want[src][dst] {
					t.Fatalf("%s: DistTable.At(%d,%d)=%d, BFS %d", g.Name(), src, dst, tab.At(src, dst), want[src][dst])
				}
			}
		}
	}
}

// legacyCandidates recomputes the candidate set the legacy BFS path walker
// enumerated at cur on the way to dst: neighbors one hop closer, adjacency
// order.
func legacyCandidates(g *Graph, cur, dst int) []int {
	distTo := g.DistancesBFS(dst)
	if cur == dst || distTo[cur] <= 0 {
		return nil
	}
	var cands []int
	for _, nb := range g.Neighbors(cur) {
		if distTo[nb] == distTo[cur]-1 {
			cands = append(cands, nb)
		}
	}
	return cands
}

func TestOracleCandidateOrderMatchesBFS(t *testing.T) {
	for _, g := range registryDevices() {
		n := g.NumQubits()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				got := g.NextHopCandidates(src, dst)
				want := legacyCandidates(g, src, dst)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(row32(got), want) {
					t.Fatalf("%s: NextHopCandidates(%d,%d)=%v, legacy BFS order %v", g.Name(), src, dst, got, want)
				}
			}
		}
	}
}

// TestOracleTieBreakPathsMatchBFS drives the oracle walk and the legacy BFS
// walk with identical seeded RNG prefer hooks and asserts both the chosen
// paths and the exact candidate slices shown to prefer agree — the contract
// that keeps every seeded router bit-identical.
func TestOracleTieBreakPathsMatchBFS(t *testing.T) {
	for _, g := range registryDevices() {
		n := g.NumQubits()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				rngO := rand.New(rand.NewSource(int64(src*1009 + dst)))
				rngB := rand.New(rand.NewSource(int64(src*1009 + dst)))
				var seenO, seenB [][]int
				po := g.ShortestPathTieBreak(src, dst, func(cands []int32) int {
					seenO = append(seenO, row32(cands))
					return rngO.Intn(len(cands))
				})
				pb := g.ShortestPathTieBreakBFS(src, dst, func(cands []int) int {
					seenB = append(seenB, append([]int(nil), cands...))
					return rngB.Intn(len(cands))
				})
				if !reflect.DeepEqual(po, pb) {
					t.Fatalf("%s: path(%d,%d) oracle %v != BFS %v", g.Name(), src, dst, po, pb)
				}
				if !reflect.DeepEqual(seenO, seenB) {
					t.Fatalf("%s: prefer streams diverge for (%d,%d): oracle %v, BFS %v", g.Name(), src, dst, seenO, seenB)
				}
				// Default (nil prefer) tie-break must agree too.
				if d, b := g.ShortestPathTieBreak(src, dst, nil), g.ShortestPathTieBreakBFS(src, dst, nil); !reflect.DeepEqual(d, b) {
					t.Fatalf("%s: deterministic path(%d,%d) oracle %v != BFS %v", g.Name(), src, dst, d, b)
				}
			}
		}
	}
}

func TestShortestPathAppendReusesBuffer(t *testing.T) {
	g := Grid5x4()
	buf := make([]int, 0, 32)
	for src := 0; src < g.NumQubits(); src++ {
		for dst := 0; dst < g.NumQubits(); dst++ {
			p, ok := g.ShortestPathAppend(buf[:0], src, dst, nil)
			if !ok {
				t.Fatalf("grid should be connected: (%d,%d)", src, dst)
			}
			if want := g.ShortestPath(src, dst); !reflect.DeepEqual(p, want) {
				t.Fatalf("append path (%d,%d) = %v, want %v", src, dst, p, want)
			}
		}
	}
	// Unreachable: buffer unchanged, ok false.
	d := NewGraph("pair", 3)
	d.AddEdge(0, 1)
	if _, ok := d.ShortestPathAppend(nil, 0, 2, nil); ok {
		t.Fatal("expected unreachable")
	}
}

// weightFuncs are edge-weight models the weighted oracle must reproduce
// exactly: unit weights, noisy pseudo-random symmetric weights, and a model
// with negative values exercising the clamp-to-zero rule.
func weightFuncs() map[string]func(a, b int) float64 {
	return map[string]func(a, b int) float64{
		"unit": func(a, b int) float64 { return 1 },
		"noise": func(a, b int) float64 {
			if a > b {
				a, b = b, a
			}
			return -math.Log(0.99 - 0.002*float64((a*31+b*17)%9))
		},
		"negative": func(a, b int) float64 {
			if a > b {
				a, b = b, a
			}
			return float64((a+b)%5) - 1.5
		},
	}
}

func TestWeightedOracleMatchesWeightedPath(t *testing.T) {
	for _, g := range registryDevices() {
		for name, w := range weightFuncs() {
			o := NewWeightedOracle(g, w)
			n := g.NumQubits()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					want := g.WeightedPath(src, dst, w)
					got := o.Path(src, dst)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s: weighted path(%d,%d) oracle %v != Dijkstra %v", g.Name(), name, src, dst, got, want)
					}
					buf, ok := o.PathAppend(make([]int, 0, 8), src, dst)
					if ok != (want != nil) {
						t.Fatalf("%s/%s: PathAppend ok=%v, want reachable=%v", g.Name(), name, ok, want != nil)
					}
					if ok && !reflect.DeepEqual(buf, want) {
						t.Fatalf("%s/%s: PathAppend(%d,%d)=%v, want %v", g.Name(), name, src, dst, buf, want)
					}
				}
			}
		}
	}
}

// TestOraclePropertyRandomGraphs fuzzes the equivalence over seeded random
// graphs of varying size and density, including disconnected ones.
func TestOraclePropertyRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(23)
		g := NewGraph("rand", n)
		// Density varies from sparse (often disconnected) to dense.
		edges := rng.Intn(n * 2)
		for e := 0; e < edges; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(a, b)
			}
		}
		want := g.AllPairsDistancesBFS()
		for src := 0; src < n; src++ {
			if !reflect.DeepEqual(row32(g.Distances(src)), want[src]) {
				t.Fatalf("trial %d: Distances(%d) diverges", trial, src)
			}
			for dst := 0; dst < n; dst++ {
				got := row32(g.NextHopCandidates(src, dst))
				legacy := legacyCandidates(g, src, dst)
				if len(got) != len(legacy) || (len(legacy) > 0 && !reflect.DeepEqual(got, legacy)) {
					t.Fatalf("trial %d: candidates(%d,%d) %v != %v", trial, src, dst, got, legacy)
				}
				seed := int64(trial*100000 + src*100 + dst)
				rngO := rand.New(rand.NewSource(seed))
				rngB := rand.New(rand.NewSource(seed))
				po := g.ShortestPathTieBreak(src, dst, func(c []int32) int { return rngO.Intn(len(c)) })
				pb := g.ShortestPathTieBreakBFS(src, dst, func(c []int) int { return rngB.Intn(len(c)) })
				if !reflect.DeepEqual(po, pb) {
					t.Fatalf("trial %d: path(%d,%d) %v != %v", trial, src, dst, po, pb)
				}
			}
		}
	}
}

// TestConcurrentOracleBuild hammers a fresh graph from many goroutines so
// the sync.Once build is exercised under the race detector (make race).
func TestConcurrentOracleBuild(t *testing.T) {
	g := Johannesburg() // fresh instance, oracle not yet built
	want := g.AllPairsDistancesBFS()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				src, dst := rng.Intn(20), rng.Intn(20)
				if g.Dist(src, dst) != want[src][dst] {
					errs <- "dist mismatch under concurrency"
					return
				}
				p := g.ShortestPathTieBreak(src, dst, func(c []int32) int { return rng.Intn(len(c)) })
				if len(p) != want[src][dst]+1 {
					errs <- "path length mismatch under concurrency"
					return
				}
				if len(g.EdgeList()) != g.NumEdges() {
					errs <- "edge list mismatch under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestAddEdgeAfterOraclePanics(t *testing.T) {
	g := Line(4)
	_ = g.Distances(0) // freezes
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after oracle build should panic")
		}
	}()
	g.AddEdge(0, 2)
}

// TestOracleBuildAllocBudget pins the oracle build's allocation count: the
// counting pass sizes the int32 candidate table exactly (no append growth)
// and the per-row BFS reuses one queue buffer, so a 20-qubit build stays
// within a fixed handful of allocations.
func TestOracleBuildAllocBudget(t *testing.T) {
	g := Johannesburg()
	g.EnsureOracle() // freeze; measure the build alone below
	allocs := testing.AllocsPerRun(10, func() {
		_ = buildOracle(g)
	})
	// struct + dist slab + candOff + queue + cand + edge list + sort.Slice
	// internals. Headroom of a few on top of the measured count.
	if allocs > 12 {
		t.Fatalf("buildOracle allocated %v times, budget 12", allocs)
	}
	o := buildOracle(g)
	if cap(o.cand) != len(o.cand) {
		t.Fatalf("candidate table not exactly sized: len %d cap %d", len(o.cand), cap(o.cand))
	}
}

// ShortestPath returns one shortest path from src to dst (inclusive of both),
// breaking ties deterministically by lowest qubit index. Returns nil if dst
// is unreachable.
func (g *Graph) ShortestPath(src, dst int) []int {
	return g.ShortestPathTieBreak(src, dst, nil)
}

// ShortestPathTieBreak returns one shortest path from src to dst, walking
// the oracle's candidate table with ShortestPathAppend's tie-break contract
// (prefer chooses among equal next hops; nil picks the lowest index). The
// tests hold it to ShortestPathTieBreakBFS, the per-query BFS walk.
func (g *Graph) ShortestPathTieBreak(src, dst int, prefer func(cands []int32) int) []int {
	o := g.ensureOracle()
	if src == dst {
		return []int{src}
	}
	d := o.dist[src*g.n+dst]
	if d < 0 {
		return nil
	}
	path := make([]int, 0, d+1)
	path, _ = g.appendShortestPath(path, src, dst, prefer)
	return path
}

// WeightedPath computes a minimum-weight path from src to dst using Dijkstra
// over per-edge weights supplied by weight(a, b), or nil if dst is
// unreachable. It is the per-query reference that the WeightedOracle the
// noise-aware routers build is held to, path for path.
func (g *Graph) WeightedPath(src, dst int, weight func(a, b int) float64) []int {
	dist := make([]float64, g.n)
	prev := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := pairHeap{{q: src, d: 0}}
	for pq.Len() > 0 {
		it := pq.pop()
		if done[it.q] {
			continue
		}
		done[it.q] = true
		if it.q == dst {
			break
		}
		for _, nb := range g.adj[it.q] {
			w := weight(it.q, nb)
			if w < 0 {
				w = 0
			}
			if nd := dist[it.q] + w; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = it.q
				pq.push(pair{q: nb, d: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	// Reconstruct.
	var rev []int
	for q := dst; q != -1; q = prev[q] {
		rev = append(rev, q)
	}
	path := make([]int, len(rev))
	for i, q := range rev {
		path[len(rev)-1-i] = q
	}
	return path
}

// NextHopCandidates returns the neighbors of src that lie on some shortest
// path toward dst, in adjacency order — the candidate set a tie-breaking
// path walk chooses from at src. The slice is shared; callers must not
// modify it. Empty when src == dst or dst is unreachable.
func (g *Graph) NextHopCandidates(src, dst int) []int32 {
	return g.ensureOracle().candidates(g.n, src, dst)
}

// Path returns a minimum-weight path from src to dst (inclusive), identical
// to WeightedPath's choice, or nil when dst is unreachable.
func (o *WeightedOracle) Path(src, dst int) []int {
	p, ok := o.PathAppend(nil, src, dst)
	if !ok {
		return nil
	}
	return p
}
