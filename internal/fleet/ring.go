// Package fleet is the multi-replica serving layer: a front proxy that
// consistent-hashes compile cache keys across N triosd replicas, so each
// replica's two-tier artifact cache (in-memory LRU over the persistent
// store) sees a stable shard of the key space. Replica health is tracked by
// polling /healthz; routing is drain-aware, and transport failures retry the
// next replica along the ring, so killing a replica mid-run degrades
// capacity instead of availability.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Replica is one triosd backend.
type Replica struct {
	// Name labels the replica in headers, metrics, and health output.
	Name string
	// URL is the replica's base URL, e.g. "http://127.0.0.1:8431".
	URL string
}

// Ring is a consistent-hash ring over replicas. Each replica owns Vnodes
// points on the ring; a key routes to the replica owning the first point
// clockwise of the key's hash. Adding or removing one replica therefore
// remaps only ~1/N of the key space, which is what keeps the other replicas'
// caches warm across fleet membership changes.
type Ring struct {
	replicas []Replica
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// DefaultVnodes balances shard evenness (stddev of shard size shrinks with
// sqrt(vnodes)) against ring build cost.
const DefaultVnodes = 64

// NewRing builds the ring. vnodes <= 0 means DefaultVnodes.
func NewRing(replicas []Replica, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{replicas: replicas}
	for i, rep := range replicas {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", rep.URL, v)), replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica // deterministic on (absurdly unlikely) collisions
	})
	return r
}

// hash64 maps a string onto the ring's keyspace via SHA-256 (truncated):
// uniform, stable across processes and restarts, and cheap next to a compile.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Order returns the distinct replica indices in ring order starting at key's
// successor point: Order(key)[0] is the home replica, the rest are the
// failover sequence. Every replica appears exactly once.
func (r *Ring) Order(key string) []int {
	out := make([]int, 0, len(r.replicas))
	if len(r.points) == 0 {
		return out
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, len(r.replicas))
	for i := 0; i < len(r.points) && len(out) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}
