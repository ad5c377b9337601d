package topo

import (
	"fmt"
	"math"
	"sync"
)

// infWeight marks unreachable nodes in weighted-path tables.
var infWeight = math.Inf(1)

// oracle is the per-device distance oracle: an all-pairs hop-distance table
// plus a next-hop candidate table, built once per Graph and shared by every
// shortest-path query afterwards. It turns the BFS-per-query hot path of the
// routing passes into allocation-free table lookups while reproducing the
// legacy BFS results bit-for-bit: candidate next hops are stored in the exact
// adjacency order the BFS tie-break loop enumerated them, so seeded
// tie-breaking consumes the same RNG stream and picks the same paths.
//
// Both tables are flat row-major int32 slabs rather than [][]int: a distance
// query is one multiply-add and one 4-byte load with no row-pointer
// dereference, and a 20-qubit device's whole matrix (1.6 KB) fits in a few
// cache lines. Device distances are tiny (-1..diameter), so int32 loses
// nothing.
type oracle struct {
	// dist[src*n+dst] is the BFS hop distance, -1 when unreachable.
	dist []int32
	// dist8 mirrors dist as bytes (0xFF when unreachable): a 100-qubit
	// device's whole matrix shrinks from 40 KB to 10 KB, so the routers'
	// delta-scoring gathers stay L1-resident. Exact whenever n <= 255 —
	// a connected n-qubit graph's diameter is at most n-1 < 0xFF — and
	// DistTable.Slab8 returns nil past that, sending callers to dist.
	dist8 []uint8
	// cand[candOff[src*n+dst]:candOff[src*n+dst+1]] lists the neighbors of
	// src one hop closer to dst, in adjacency (insertion) order — exactly the
	// candidate list the legacy ShortestPathTieBreak built per hop.
	candOff []int32
	cand    []int32
	// edges is the sorted (low, high) edge list Edges() used to rebuild and
	// re-sort on every call.
	edges [][2]int
	// rows is the pre-flattening [][]int matrix, materialized lazily for
	// the preserved legacy benchmark arms only.
	rowsOnce sync.Once
	rows     [][]int
}

// ensureOracle builds the oracle on first use. The sync.Once makes a shared
// Graph safe to query from concurrent batch workers: exactly one worker pays
// for the build, the rest block until the tables exist. Building freezes the
// graph; AddEdge panics afterwards (the tables would silently go stale).
func (g *Graph) ensureOracle() *oracle {
	g.once.Do(func() {
		g.orc = buildOracle(g)
		g.frozen = true
	})
	return g.orc
}

// EnsureOracle eagerly builds the distance oracle (idempotent, concurrency
// safe). The compiler's batch engine calls it once per unique device before
// fanning jobs out, so the build is never duplicated inside timed passes.
func (g *Graph) EnsureOracle() { g.ensureOracle() }

func buildOracle(g *Graph) *oracle {
	n := g.n
	o := &oracle{
		dist:    make([]int32, n*n),
		candOff: make([]int32, n*n+1),
	}
	// One BFS per row into the shared slab, reusing a single queue buffer
	// across rows instead of allocating one per source.
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		queue = bfsDistances32Into(g, src, o.dist[src*n:(src+1)*n], queue)
	}
	if n <= 255 {
		o.dist8 = make([]uint8, n*n)
		for i, v := range o.dist {
			o.dist8[i] = uint8(v) // -1 wraps to the 0xFF sentinel
		}
	}
	// Candidate table: for each (src, dst), the neighbors of src that sit one
	// hop closer to dst, in adjacency order (the order the BFS path walker
	// enumerated them). Sized exactly with a counting pass.
	total := 0
	for src := 0; src < n; src++ {
		row := o.dist[src*n : (src+1)*n]
		for dst := 0; dst < n; dst++ {
			if src != dst && row[dst] > 0 {
				for _, nb := range g.adj[src] {
					if o.dist[nb*n+dst] == row[dst]-1 {
						total++
					}
				}
			}
		}
	}
	o.cand = make([]int32, 0, total)
	for src := 0; src < n; src++ {
		row := o.dist[src*n : (src+1)*n]
		for dst := 0; dst < n; dst++ {
			o.candOff[src*n+dst] = int32(len(o.cand))
			if src != dst && row[dst] > 0 {
				for _, nb := range g.adj[src] {
					if o.dist[nb*n+dst] == row[dst]-1 {
						o.cand = append(o.cand, int32(nb))
					}
				}
			}
		}
	}
	o.candOff[n*n] = int32(len(o.cand))
	// Cache the canonical sorted edge list once.
	o.edges = g.Edges()
	return o
}

// bfsDistances32Into runs the BFS from src into a row of the int32 slab,
// using (and returning) the caller's queue scratch. Traversal order is
// identical to the legacy bfsDistancesInto.
func bfsDistances32Into(g *Graph, src int, dist []int32, queue []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		q := queue[head]
		for _, nb := range g.adj[q] {
			if dist[nb] < 0 {
				dist[nb] = dist[q] + 1
				queue = append(queue, nb)
			}
		}
	}
	return queue
}

// candidates returns the shared next-hop slice for (src, dst).
func (o *oracle) candidates(n, src, dst int) []int32 {
	k := src*n + dst
	return o.cand[o.candOff[k]:o.candOff[k+1]]
}

// DistTable is the distance oracle's flat row-major hop-distance slab with
// its stride. It is the allocation-free bulk accessor the routing hot loops
// index directly: At compiles to one multiply-add and a 4-byte load, and
// Slab exposes the raw slab for loops that precompute their own offsets.
type DistTable struct {
	d  []int32
	d8 []uint8
	n  int
}

// At returns the hop distance between a and b (-1 when unreachable).
func (t DistTable) At(a, b int) int { return int(t.d[a*t.n+b]) }

// Row returns the distances from src to every qubit as a shared slice of the
// slab; callers must not modify it.
func (t DistTable) Row(src int) []int32 { return t.d[src*t.n : (src+1)*t.n] }

// Slab returns the raw row-major slab (len n*n, index src*n+dst); callers
// must not modify it.
func (t DistTable) Slab() []int32 { return t.d }

// Slab8 returns the byte mirror of Slab (0xFF when unreachable), or nil when
// the device is too large for hop counts to fit a byte (n > 255). Hot loops
// prefer it because the whole matrix stays L1-resident; callers must not
// modify it and must fall back to Slab on nil.
func (t DistTable) Slab8() []uint8 { return t.d8 }

// NumQubits returns the table's row stride.
func (t DistTable) NumQubits() int { return t.n }

// DistTable returns the graph's flat all-pairs hop-distance table.
func (g *Graph) DistTable() DistTable {
	o := g.ensureOracle()
	return DistTable{d: o.dist, d8: o.dist8, n: g.n}
}

// Dist returns the hop distance between a and b (-1 when unreachable) as an
// O(1) table lookup.
func (g *Graph) Dist(a, b int) int {
	return int(g.ensureOracle().dist[a*g.n+b])
}

// AllPairsDistances returns the distance matrix as [][]int row slices
// (materialized once, then shared — callers must not modify it). New code
// should prefer DistTable, whose flat slab is what the hot loops read; this
// accessor remains for callers that want the classic row-slice shape.
func (g *Graph) AllPairsDistances() [][]int {
	return g.ensureOracle().legacyRows(g.n)
}

// NextHopCandidates returns the neighbors of src that lie on some shortest
// path toward dst, in adjacency order — the candidate set a tie-breaking
// path walk chooses from at src. The slice is shared; callers must not
// modify it. Empty when src == dst or dst is unreachable.
func (g *Graph) NextHopCandidates(src, dst int) []int32 {
	return g.ensureOracle().candidates(g.n, src, dst)
}

// EdgeList returns all couplings as sorted (low, high) pairs. Unlike Edges,
// the returned slice is the oracle's shared copy: callers must not modify it.
func (g *Graph) EdgeList() [][2]int {
	return g.ensureOracle().edges
}

// ---- Legacy reference implementations ----
//
// The per-query BFS routines the oracle replaced are preserved verbatim
// below. They are the ground truth the oracle equivalence tests compare
// against on every registry device, and the "old" side of the path
// benchmarks in bench_test.go.

// bfsDistancesInto runs the legacy BFS from src, writing hop distances into
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

// DistancesBFS is the legacy allocating per-query BFS behind Distances,
// retained as the reference implementation for equivalence tests and
// old-vs-new benchmarks.
func (g *Graph) DistancesBFS(src int) []int {
	dist := make([]int, g.n)
	bfsDistancesInto(g, src, dist)
	return dist
}

// AllPairsDistancesBFS is the legacy matrix construction (one BFS per row),
// retained for equivalence tests and benchmarks.
func (g *Graph) AllPairsDistancesBFS() [][]int {
	d := make([][]int, g.n)
	for i := 0; i < g.n; i++ {
		d[i] = g.DistancesBFS(i)
	}
	return d
}

// ShortestPathTieBreakBFS is the legacy BFS-per-query path walk behind
// ShortestPathTieBreak, retained for equivalence tests and benchmarks. Its
// candidate enumeration order defines the contract the oracle's candidate
// table reproduces.
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

// freezeCheck panics when a mutation arrives after the oracle was built.
func (g *Graph) freezeCheck() {
	if g.frozen {
		panic(fmt.Sprintf("topo: AddEdge on %s after its distance oracle was built; construct the graph fully before querying distances", g.name))
	}
}

// ---- Weighted oracle ----

// WeightedOracle precomputes minimum-weight paths for every source under one
// edge-weight function, replacing the Dijkstra-per-query WeightedPath in the
// noise-aware routing hot loop. Go cannot key a cache on function identity,
// so the oracle is explicit: routers build one per (graph, weight) pair and
// amortize it across every path query of a routing run. Paths are
// bit-identical to WeightedPath's: the build runs the same Dijkstra with the
// same heap semantics from each source, and a full run's predecessor tree
// agrees with the early-exit per-query run on every popped node.
//
// Like the hop oracle, the tables are flat row-major slabs: dist[src*n+dst]
// and prev[src*n+dst], so the routers' weighted delta-scoring loops index
// them with one multiply-add and no row-pointer chase.
type WeightedOracle struct {
	n    int
	dist []float64
	prev []int32
	// rows is the seed's [][]float64 shape, materialized lazily for the
	// preserved legacy benchmark arms only.
	rowsOnce sync.Once
	rows     [][]float64
}

// NewWeightedOracle runs one full Dijkstra per source over weight(a, b)
// (negative weights clamp to 0, as in WeightedPath) and captures the
// distance and predecessor tables.
func NewWeightedOracle(g *Graph, weight func(a, b int) float64) *WeightedOracle {
	n := g.NumQubits()
	o := &WeightedOracle{
		n:    n,
		dist: make([]float64, n*n),
		prev: make([]int32, n*n),
	}
	done := make([]bool, n)
	var pq pairHeap
	for src := 0; src < n; src++ {
		dijkstraFrom(g, src, weight, o.dist[src*n:(src+1)*n], o.prev[src*n:(src+1)*n], done, &pq)
	}
	return o
}

// dijkstraFrom is the legacy WeightedPath Dijkstra without the early exit,
// writing into caller-owned scratch. Relaxation and heap order match the
// legacy per-query run exactly, so predecessor chains (and therefore paths)
// are identical.
func dijkstraFrom(g *Graph, src int, weight func(a, b int) float64, dist []float64, prev []int32, done []bool, pq *pairHeap) {
	for i := range dist {
		dist[i] = infWeight
		prev[i] = -1
		done[i] = false
	}
	dist[src] = 0
	*pq = append((*pq)[:0], pair{q: src, d: 0})
	for pq.Len() > 0 {
		it := pq.pop()
		if done[it.q] {
			continue
		}
		done[it.q] = true
		for _, nb := range g.adj[it.q] {
			w := weight(it.q, nb)
			if w < 0 {
				w = 0
			}
			if nd := dist[it.q] + w; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = int32(it.q)
				pq.push(pair{q: nb, d: nd})
			}
		}
	}
}

// Dist returns the minimum path weight from src to dst (+Inf if unreachable).
func (o *WeightedOracle) Dist(src, dst int) float64 { return o.dist[src*o.n+dst] }

// Slab returns the raw row-major distance slab (len n*n, index src*n+dst);
// callers must not modify it.
func (o *WeightedOracle) Slab() []float64 { return o.dist }

// NumQubits returns the slab's row stride.
func (o *WeightedOracle) NumQubits() int { return o.n }

// Path returns a minimum-weight path from src to dst (inclusive), identical
// to WeightedPath's choice, or nil when dst is unreachable.
func (o *WeightedOracle) Path(src, dst int) []int {
	p, ok := o.PathAppend(nil, src, dst)
	if !ok {
		return nil
	}
	return p
}

// PathAppend appends the minimum-weight path from src to dst onto buf and
// returns it; ok is false (and buf is returned unchanged) when dst is
// unreachable.
func (o *WeightedOracle) PathAppend(buf []int, src, dst int) (path []int, ok bool) {
	if math.IsInf(o.dist[src*o.n+dst], 1) {
		return buf, false
	}
	prev := o.prev[src*o.n : (src+1)*o.n]
	hops := 0
	for q := dst; q != -1; q = int(prev[q]) {
		hops++
	}
	start := len(buf)
	for i := 0; i < hops; i++ {
		buf = append(buf, 0)
	}
	for q, i := dst, hops-1; q != -1; q, i = int(prev[q]), i-1 {
		buf[start+i] = q
	}
	return buf, true
}

// legacyRows materializes the pre-flattening [][]int distance matrix on
// first use (one row slice per source, exactly the layout the seed's
// ensureOracle().dist[a][b] walked). It exists solely so the preserved
// legacy routing arms measure the old representation's pointer-chase, not
// the flat slab they were rewritten to avoid.
func (o *oracle) legacyRows(n int) [][]int {
	o.rowsOnce.Do(func() {
		rows := make([][]int, n)
		for src := 0; src < n; src++ {
			row := make([]int, n)
			for dst := 0; dst < n; dst++ {
				row[dst] = int(o.dist[src*n+dst])
			}
			rows[src] = row
		}
		o.rows = rows
	})
	return o.rows
}

// DistLegacy is the seed's Dist access path — row-pointer dereference into
// a [][]int matrix — preserved as the "old" arm of the route kernel
// micro-benchmarks. Semantically identical to Dist.
func (g *Graph) DistLegacy(a, b int) int {
	return g.ensureOracle().legacyRows(g.n)[a][b]
}

// LegacyRows returns the materialized [][]int distance matrix (the seed's
// AllPairsDistances shape), for legacy arms that hoisted the matrix out of
// their loops.
func (g *Graph) LegacyRows() [][]int {
	return g.ensureOracle().legacyRows(g.n)
}

// legacyRows is the WeightedOracle counterpart: the seed stored
// dist [][]float64 and read dist[src][dst].
func (o *WeightedOracle) legacyRows() [][]float64 {
	o.rowsOnce.Do(func() {
		rows := make([][]float64, o.n)
		for src := 0; src < o.n; src++ {
			rows[src] = append([]float64(nil), o.dist[src*o.n:(src+1)*o.n]...)
		}
		o.rows = rows
	})
	return o.rows
}

// DistLegacy is the seed's weighted Dist access path (row-pointer
// dereference), preserved for the legacy routing arms.
func (o *WeightedOracle) DistLegacy(src, dst int) float64 {
	return o.legacyRows()[src][dst]
}

// LegacyRows returns the materialized [][]float64 weighted-distance matrix.
func (o *WeightedOracle) LegacyRows() [][]float64 {
	return o.legacyRows()
}
