package topo

// Distances returns the hop distances from src to every qubit (-1 when
// unreachable) as a row of the precomputed distance oracle's flat int32
// slab. The returned slice is shared; callers must not modify it.
func (g *Graph) Distances(src int) []int32 {
	o := g.ensureOracle()
	return o.dist[src*g.n : (src+1)*g.n]
}

// ShortestPathAppend appends one shortest path from src to dst (inclusive)
// onto buf. When several next hops give the same distance, prefer chooses
// among the candidates (it receives the shared candidate list, which it must
// not modify, and returns the chosen index); a nil prefer picks the lowest
// qubit index. This hook lets the stochastic router sample uniformly among
// shortest paths with a seeded RNG while keeping the default deterministic.
// ok is false (and buf is returned unchanged) when dst is unreachable.
//
// The walk reads the distance oracle's candidate table, which stores next
// hops in the exact adjacency order a per-query BFS enumerates them, so
// prefer sees the same candidate slices, as often, as on a BFS walk, and
// seeded tie-break streams are bit-identical to it.
func (g *Graph) ShortestPathAppend(buf []int, src, dst int, prefer func(cands []int32) int) (path []int, ok bool) {
	if src == dst {
		return append(buf, src), true
	}
	if g.ensureOracle().dist[src*g.n+dst] < 0 {
		return buf, false
	}
	return g.appendShortestPath(buf, src, dst, prefer)
}

// appendShortestPath walks the candidate table from src to dst. The caller
// has already ruled out src == dst and unreachability.
func (g *Graph) appendShortestPath(buf []int, src, dst int, prefer func(cands []int32) int) ([]int, bool) {
	o := g.orc
	buf = append(buf, src)
	cur := src
	for cur != dst {
		cands := o.candidates(g.n, cur, dst)
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
		buf = append(buf, int(next))
		cur = int(next)
	}
	return buf, true
}

type pair struct {
	q int
	d float64
}

// pairHeap is a hand-rolled binary min-heap on d, replacing the former
// container/heap implementation whose interface{} Push/Pop boxed every
// element. The sift rules mirror container/heap exactly (strict-less
// comparisons, identical swap order), so pop order — and therefore Dijkstra
// tie-breaking — is unchanged.
type pairHeap []pair

func (h pairHeap) Len() int { return len(h) }

func (h *pairHeap) push(it pair) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *pairHeap) pop() pair {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift down over s[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].d < s[j1].d {
			j = j2
		}
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}
