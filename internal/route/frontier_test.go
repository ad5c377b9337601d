package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"trios/internal/circuit"
)

// rescanDrain is the scheduler the frontier replaced, kept as its
// reference: every sweep rescans all n gates in program order, offering
// each gate not yet run whose predecessors have all run, until a sweep runs
// none. It returns whether gates are left.
func rescanDrain(c *circuit.Circuit, done []bool, run func(i int) bool) bool {
	preds := make([][]int, len(c.Gates))
	last := make([]int, c.NumQubits)
	for q := range last {
		last[q] = -1
	}
	for i, g := range c.Gates {
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 && !slices.Contains(preds[i], p) {
				preds[i] = append(preds[i], p)
			}
			last[q] = i
		}
	}
	for progress := true; progress; {
		progress = false
		for i := range c.Gates {
			if done[i] || slices.ContainsFunc(preds[i], func(p int) bool { return !done[p] }) {
				continue
			}
			if run(i) {
				done[i] = true
				progress = true
			}
		}
	}
	return slices.Contains(done, false)
}

// lineSim stands in for a router on a line device: a pair runs when
// adjacent, a trio gate runs after moving its operands next to its first
// one (changing the placement mid-sweep, as the stochastic router's trio
// routing does), and a blocked schedule gets one random adjacent swap.
type lineSim struct {
	c      *circuit.Circuit
	pos    []int // qubit -> line position
	rng    *rand.Rand
	offers []string
}

func (s *lineSim) run(i int) bool {
	g := s.c.Gates[i]
	ok := true
	switch {
	case g.Name == circuit.Barrier || len(g.Qubits) == 1:
	case len(g.Qubits) == 2:
		d := s.pos[g.Qubits[0]] - s.pos[g.Qubits[1]]
		ok = d == 1 || d == -1
	default:
		for k, q := range g.Qubits[1:] {
			s.moveTo(q, s.pos[g.Qubits[0]]+k+1)
		}
	}
	s.offers = append(s.offers, fmt.Sprintf("%d:%v", i, ok))
	return ok
}

// moveTo puts qubit q at position p (mod the line), swapping the qubit
// there into q's old place.
func (s *lineSim) moveTo(q, p int) {
	p %= len(s.pos)
	for o, at := range s.pos {
		if at == p {
			s.pos[o], s.pos[q] = s.pos[q], p
			return
		}
	}
}

func (s *lineSim) swap() {
	p := s.rng.Intn(len(s.pos) - 1)
	a, b := slices.Index(s.pos, p), slices.Index(s.pos, p+1)
	s.pos[a], s.pos[b] = p+1, p
	s.offers = append(s.offers, "swap")
}

func newLineSim(c *circuit.Circuit, seed int64) *lineSim {
	s := &lineSim{c: c, pos: make([]int, c.NumQubits), rng: rand.New(rand.NewSource(seed))}
	for q := range s.pos {
		s.pos[q] = q
	}
	return s
}

// TestFrontierMatchesRescan drives the frontier and the full rescan it
// replaced over random circuits with barriers, CCX and RCCX gates: both
// must offer the same gates in the same order, so every router on the
// frontier runs gates in the order the rescan did.
func TestFrontierMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		c := circuit.New(n)
		for i := 0; i < 10+rng.Intn(60); i++ {
			p := rng.Perm(n)
			switch k := rng.Intn(12); {
			case k < 3:
				c.H(p[0])
			case k < 8:
				c.CX(p[0], p[1])
			case k == 8:
				c.CCX(p[0], p[1], p[2])
			case k == 9:
				c.RCCX(p[0], p[1], p[2])
			case k == 10:
				c.Barrier(p[:1+rng.Intn(n)]...)
			default:
				c.Barrier()
			}
		}
		seed := rng.Int63()

		ref := newLineSim(c, seed)
		done := make([]bool, len(c.Gates))
		for rescanDrain(c, done, ref.run) {
			ref.swap()
		}

		got := newLineSim(c, seed)
		f := newFrontier(c)
		for {
			if err := f.drain(func(i int) (bool, error) { return got.run(i), nil }); err != nil {
				t.Fatal(err)
			}
			if f.left == 0 {
				break
			}
			got.swap()
		}
		if !slices.Equal(got.offers, ref.offers) {
			t.Fatalf("trial %d: frontier offers\n%v\nrescan offers\n%v\non\n%v", trial, got.offers, ref.offers, c)
		}
	}
}

// runOnly drains f, running only the named gates.
func runOnly(t *testing.T, f *frontier, gates ...int) {
	t.Helper()
	if err := f.drain(func(i int) (bool, error) { return slices.Contains(gates, i), nil }); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierWaitsOnEachSharedQubit: a gate is ready only once every
// earlier gate it shares a qubit with has run.
func TestFrontierWaitsOnEachSharedQubit(t *testing.T) {
	c := circuit.New(3)
	c.H(0)         // 0
	c.CX(0, 1)     // 1 waits on 0
	c.H(2)         // 2 waits on nothing
	c.CCX(0, 1, 2) // 3 waits on 1 and 2
	f := newFrontier(c)
	for _, step := range []struct {
		run   []int
		ready []int
	}{
		{nil, []int{0, 2}},
		{[]int{0}, []int{1, 2}},
		{[]int{1}, []int{2}},
		{[]int{2}, []int{3}},
		{[]int{3}, nil},
	} {
		runOnly(t, f, step.run...)
		if !slices.Equal(f.ready, step.ready) {
			t.Fatalf("after running %v: ready = %v, want %v", step.run, f.ready, step.ready)
		}
	}
	if f.left != 0 {
		t.Errorf("%d gates left", f.left)
	}
}

// TestFrontierWaitsOnceOnASharedGate: a gate sharing two qubits with one
// earlier gate is ready as soon as that gate runs.
func TestFrontierWaitsOnceOnASharedGate(t *testing.T) {
	c := circuit.New(3)
	c.CX(0, 1)     // 0
	c.CX(0, 1)     // 1 waits on 0 over both qubits
	c.H(2)         // 2
	c.CCX(0, 1, 2) // 3 waits on 1 (two qubits) and 2
	f := newFrontier(c)
	runOnly(t, f, 0)
	if want := []int{1, 2}; !slices.Equal(f.ready, want) {
		t.Fatalf("ready = %v, want %v", f.ready, want)
	}
	runOnly(t, f, 1)
	if want := []int{2}; !slices.Equal(f.ready, want) {
		t.Fatalf("ready = %v, want %v", f.ready, want)
	}
	runOnly(t, f, 2)
	if want := []int{3}; !slices.Equal(f.ready, want) {
		t.Fatalf("ready = %v, want %v", f.ready, want)
	}
}
