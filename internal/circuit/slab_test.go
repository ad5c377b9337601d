package circuit

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestOperandsCapacityClipped: builder gates carve their operands from one
// chunk, back to back. Appending to one gate's Qubits or Params must
// reallocate, not write into the next gate's operands.
func TestOperandsCapacityClipped(t *testing.T) {
	c := New(4)
	c.CX(0, 1).CX(2, 3).U3(1, 2, 3, 0).U3(4, 5, 6, 1)
	c.MCX([]int{0, 1}, 2).Barrier(0, 3)
	c.AppendMapped(c.Gates[0], func(q int) int { return 3 - q }).CCX(0, 1, 2)
	want := c.Copy()
	for i := range c.Gates {
		g := c.Gates[i]
		_ = append(g.Qubits, 9)
		_ = append(g.Params, 9)
	}
	if !c.Equal(want) {
		t.Fatalf("appending to one gate's operands changed another's:\n%v\nwant\n%v", c, want)
	}
}

// TestOperandsValueCopiesNeverShare: value copies of a circuit share its
// slab, and gates appended through either copy, across many chunks, never
// share an operand.
func TestOperandsValueCopiesNeverShare(t *testing.T) {
	c := New(4)
	c.H(0) // the slab exists before the copies are made
	c.Gates = slices.Clip(c.Gates)
	a, b := *c, *c
	for range 3 * maxChunk {
		a.CX(0, 1).U1(1, 0)
		b.CX(2, 3).U1(2, 1)
	}
	seen := map[*int]string{}
	seenP := map[*float64]string{}
	for _, side := range []struct {
		name string
		c    *Circuit
		cx   []int
		u1   Gate
	}{
		{"a", &a, []int{0, 1}, NewGate(U1, []int{0}, 1)},
		{"b", &b, []int{2, 3}, NewGate(U1, []int{1}, 2)},
	} {
		for i, g := range side.c.Gates[1:] {
			if i%2 == 0 && !slices.Equal(g.Qubits, side.cx) || i%2 == 1 && !g.Equal(side.u1) {
				t.Fatalf("copy %s gate %d is %v: another copy's gate overwrote it", side.name, i+1, g)
			}
			if other, ok := seen[&g.Qubits[0]]; ok {
				t.Fatalf("copy %s gate %d shares its qubits with %s", side.name, i+1, other)
			}
			seen[&g.Qubits[0]] = fmt.Sprintf("copy %s gate %d", side.name, i+1)
			if len(g.Params) > 0 {
				if other, ok := seenP[&g.Params[0]]; ok {
					t.Fatalf("copy %s gate %d shares its params with %s", side.name, i+1, other)
				}
				seenP[&g.Params[0]] = fmt.Sprintf("copy %s gate %d", side.name, i+1)
			}
		}
	}
}

// TestNewGateRejectsDuplicatesAtAnyWidth: the pairwise check (up to
// smallOperands qubits) and the sorting check (beyond) both refuse a
// repeated qubit, naming it as the map-based check did.
func TestNewGateRejectsDuplicatesAtAnyWidth(t *testing.T) {
	for _, n := range []int{2, 3, 9, 5000} {
		qs := make([]int, n)
		for i := range qs {
			qs[i] = n - i
		}
		qs[n-1] = qs[(n-1)/2]
		want := fmt.Sprintf("duplicate qubit %d", qs[n-1])
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, want) {
					t.Errorf("NewGate(mcx, %d qubits with a repeat) panicked with %v, want %q", n, r, want)
				}
			}()
			NewGate(MCX, qs)
		}()
		qs[n-1] = n + 1
		NewGate(MCX, qs) // distinct again: no panic
	}
}

// TestFirstRepeatMatchesMapScan holds FirstRepeat to the map-based scan it
// replaced, on random lists around and far beyond smallOperands.
func TestFirstRepeatMatchesMapScan(t *testing.T) {
	mapScan := func(qs []int) int {
		seen := map[int]bool{}
		for i, q := range qs {
			if seen[q] {
				return i
			}
			seen[q] = true
		}
		return -1
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(3 * smallOperands)
		if trial%100 == 0 {
			n = 1000 + rng.Intn(1000)
		}
		qs := make([]int, n)
		for i := range qs {
			qs[i] = rng.Intn(4*n + 1)
		}
		if got, want := FirstRepeat(qs), mapScan(qs); got != want {
			t.Fatalf("FirstRepeat(%v) = %d, map scan %d", qs, got, want)
		}
	}
}

// TestFirstRepeatWideStaysFast: a hostile mcx line can carry hundreds of
// thousands of operands (Parse takes a whole request body), so the check
// must stay O(n log n). It takes milliseconds; a pairwise scan would take
// tens of seconds.
func TestFirstRepeatWideStaysFast(t *testing.T) {
	qs := make([]int, 1<<18)
	for i := range qs {
		qs[i] = len(qs) - i
	}
	qs[len(qs)-1] = qs[0]
	done := make(chan int, 1)
	go func() { done <- FirstRepeat(qs) }()
	select {
	case i := <-done:
		if i != len(qs)-1 {
			t.Fatalf("FirstRepeat = %d, want %d", i, len(qs)-1)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("FirstRepeat on %d operands took over 5s", len(qs))
	}
}

func BenchmarkNewGateMCX5000(b *testing.B) {
	qs := make([]int, 5000)
	for i := range qs {
		qs[i] = len(qs) - i
	}
	b.ReportAllocs()
	for b.Loop() {
		NewGate(MCX, qs)
	}
}
