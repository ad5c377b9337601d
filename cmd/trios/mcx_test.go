package main

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/gatemat"
	"trios/internal/qasm"
	"trios/internal/sim"
	"trios/internal/topo"
)

// TestMCXProgramsCompileEquivalent compiles every program of mcxPrograms,
// each of which holds an mcx spanning its whole register, as `trios` does
// by default (greedy placement, seed 1) under both pipelines on
// johannesburg, grid, line and clusters, with -optimize off and on, and
// checks each compiled program on basis states.
func TestMCXProgramsCompileEquivalent(t *testing.T) {
	for _, p := range mcxPrograms() {
		input, err := qasm.Parse(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, topology := range []string{"johannesburg", "grid", "line", "clusters"} {
			g, err := topo.ByName(topology)
			if err != nil {
				t.Fatal(err)
			}
			for _, pipe := range []compiler.Pipeline{compiler.Conventional, compiler.TriosPipeline} {
				for _, optimize := range []bool{false, true} {
					cell := fmt.Sprintf("%s %s %v optimize=%v", p.name, topology, pipe, optimize)
					res, err := compiler.Compile(input, g, compiler.Options{
						Pipeline: pipe, Placement: compiler.PlaceGreedy, Seed: 1, Optimize: optimize,
					})
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					if err := res.Verify(); err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					if err := basisEquivalent(input, res); err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
				}
			}
		}
	}
}

// basisEquivalent holds a compiled reversible program to its source on
// basis states: the all-zero and all-one inputs, the input that sets every
// bit but the top one, and 13 seeded random inputs. Each, placed at
// res.Initial with every other device qubit at 0, must come out as the
// source's output at res.Final, every other device qubit back at 0 (a
// borrowed wire is restored), and all with one global phase. A compiled
// program that passes on every input equals the source's permutation up to
// that phase. The compiled gates run on the few amplitudes a basis input
// spreads to, not on a statevector of the whole device.
func basisEquivalent(input *circuit.Circuit, res *compiler.Result) error {
	n := input.NumQubits
	all := uint64(1)<<uint(n) - 1
	inputs := []uint64{0, all, all >> 1}
	rng := rand.New(rand.NewSource(1))
	for len(inputs) < 16 {
		inputs = append(inputs, rng.Uint64()&all)
	}
	var phase complex128
	for _, in := range inputs {
		out, err := sim.ClassicalRun(input, in)
		if err != nil {
			return err
		}
		var physIn, want uint64
		for v := 0; v < n; v++ {
			physIn |= (in >> uint(v) & 1) << uint(res.Initial[v])
			want |= (out >> uint(v) & 1) << uint(res.Final[v])
		}
		got, err := runBasis(res.Physical, physIn)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0].k != want || cmplx.Abs(got[0].a) < 1-1e-9 {
			return fmt.Errorf("input %b: want basis state %b alone, got %v", in, want, got)
		}
		if a := got[0].a; phase == 0 {
			phase = a
		} else if cmplx.Abs(a-phase) > 1e-9 {
			return fmt.Errorf("input %b: phase %v, want %v as on the first input", in, a, phase)
		}
	}
	return nil
}

// amp is one nonzero amplitude a of basis state k.
type amp struct {
	k uint64
	a complex128
}

// runBasis runs a {u1,u2,u3,cx} program on basis state in and returns its
// nonzero amplitudes.
func runBasis(c *circuit.Circuit, in uint64) ([]amp, error) {
	state, next := []amp{{in, 1}}, []amp(nil)
	for _, g := range c.Gates {
		if g.Name == circuit.CX {
			ctl, tgt := uint64(1)<<uint(g.Qubits[0]), uint64(1)<<uint(g.Qubits[1])
			for i := range state {
				if state[i].k&ctl != 0 {
					state[i].k ^= tgt
				}
			}
			continue
		}
		m, err := gatemat.Single(g.Name, g.Params)
		if err != nil {
			return nil, err
		}
		bit := uint64(1) << uint(g.Qubits[0])
		next = next[:0]
		for _, s := range state {
			col := 0
			if s.k&bit != 0 {
				col = 1
			}
			next = addAmp(next, s.k&^bit, m[col]*s.a)
			next = addAmp(next, s.k|bit, m[2+col]*s.a)
		}
		state = state[:0]
		for _, s := range next {
			if cmplx.Abs(s.a) > 1e-12 {
				state = append(state, s)
			}
		}
	}
	return state, nil
}

// addAmp adds a to the amplitude of basis state k in st.
func addAmp(st []amp, k uint64, a complex128) []amp {
	if a == 0 {
		return st
	}
	for i := range st {
		if st[i].k == k {
			st[i].a += a
			return st
		}
	}
	return append(st, amp{k, a})
}

// mcxPrograms returns MCX-native inputs whose first mcx spans the whole
// register, so decomposing it borrows a wire past the register:
// incrementers of 5, 10 and 15 qubits whose carries are single mcx gates
// (mcx_incrementer-N), and single mcx gates with 4 to 10 controls (mcx-K).
func mcxPrograms() []struct{ name, src string } {
	var out []struct{ name, src string }
	mcx := func(b *strings.Builder, controls int) {
		b.WriteString("mcx ")
		for q := 0; q <= controls; q++ {
			if q > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "q[%d]", q)
		}
		b.WriteString(";\n")
	}
	for _, n := range []int{5, 10, 15} {
		var b strings.Builder
		fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", n)
		for target := n - 1; target >= 2; target-- {
			mcx(&b, target)
		}
		b.WriteString("cx q[0],q[1];\nx q[0];\n")
		out = append(out, struct{ name, src string }{fmt.Sprintf("mcx_incrementer-%d", n), b.String()})
	}
	for k := 4; k <= 10; k++ {
		var b strings.Builder
		fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", k+1)
		mcx(&b, k)
		out = append(out, struct{ name, src string }{fmt.Sprintf("mcx-%d", k), b.String()})
	}
	return out
}
