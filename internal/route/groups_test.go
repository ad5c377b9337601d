package route

import (
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

func TestGroupsRoutesMCXCluster(t *testing.T) {
	g := topo.Grid5x4()
	c := circuit.New(5)
	c.MCX([]int{0, 1, 2, 3}, 4)
	// Scatter operands across the grid.
	init := make([]int, 20)
	for i := range init {
		init[i] = i
	}
	init[0], init[0+19] = 19, 0 // swap virtual 0 to phys 19
	l, err := layout.FromVirtualToPhys(init)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Groups{}).Route(c, g, l)
	if err != nil {
		t.Fatal(err)
	}
	// The emitted MCX must sit on a connected cluster.
	for _, gate := range res.Circuit.Gates {
		if gate.Name == circuit.MCX {
			if !GroupConnected(g, gate.Qubits) {
				t.Fatalf("mcx cluster not connected: %v", gate.Qubits)
			}
		}
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsHandlesTriosToo(t *testing.T) {
	g := topo.Line(8)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		c := circuit.New(8)
		for i := 0; i < 10; i++ {
			p := rng.Perm(8)
			switch rng.Intn(3) {
			case 0:
				c.CX(p[0], p[1])
			case 1:
				c.CCX(p[0], p[1], p[2])
			default:
				c.H(p[0])
			}
		}
		init := layout.Random(8, rng)
		res, err := (&Groups{Seed: int64(trial)}).Route(c, g, init)
		if err != nil {
			t.Fatal(err)
		}
		checkRouted(t, c, g, init, res)
	}
}

func TestGroupsPreservesSemanticsWithMCX(t *testing.T) {
	// Full statevector equivalence on a small device with 4-qubit gates.
	g := topo.Grid(2, 4)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 4; trial++ {
		c := circuit.New(8)
		for i := 0; i < 8; i++ {
			p := rng.Perm(8)
			switch rng.Intn(4) {
			case 0:
				c.MCX(p[:3], p[3])
			case 1:
				c.CCX(p[0], p[1], p[2])
			case 2:
				c.CX(p[0], p[1])
			default:
				c.T(p[0])
			}
		}
		init := layout.Random(8, rng)
		res, err := (&Groups{Seed: int64(trial)}).Route(c, g, init)
		if err != nil {
			t.Fatal(err)
		}
		// Structural: all 2q adjacent, MCX/CCX clusters connected.
		for i, gate := range res.Circuit.Gates {
			switch {
			case gate.IsTwoQubit():
				if !g.Connected(gate.Qubits[0], gate.Qubits[1]) {
					t.Fatalf("gate %d not adjacent: %v", i, gate)
				}
			case gate.Name == circuit.CCX, gate.Name == circuit.MCX:
				if !GroupConnected(g, gate.Qubits) {
					t.Fatalf("gate %d cluster disconnected: %v", i, gate)
				}
			}
		}
		// Semantic equivalence via the shared helper (device is 8 qubits).
		checkRouted(t, c, g, init, res)
	}
}

func TestGroupConnected(t *testing.T) {
	g := topo.Line(6)
	if !GroupConnected(g, []int{1, 2, 3}) {
		t.Error("contiguous line segment should be connected")
	}
	if GroupConnected(g, []int{0, 2, 3}) {
		t.Error("gap should disconnect the group")
	}
	if !GroupConnected(g, nil) {
		t.Error("empty group is trivially connected")
	}
}

// GroupConnected reports whether a set of physical qubits induces a
// connected subgraph of g — the postcondition of routeGroup and the
// precondition of the group-local MCX decomposition.
func GroupConnected(g *topo.Graph, qubits []int) bool {
	if len(qubits) == 0 {
		return true
	}
	in := make(map[int]bool, len(qubits))
	for _, q := range qubits {
		in[q] = true
	}
	seen := map[int]bool{qubits[0]: true}
	stack := []int{qubits[0]}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.Neighbors(q) {
			if in[nb] && !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(qubits)
}
