package circuit

// DAG is a dependency view of a circuit: gate i depends on the most recent
// earlier gate touching each of its qubits. Barriers participate in the
// dependency structure (they order gates) but carry no operation.
type DAG struct {
	Circuit *Circuit
	// Preds[i] lists indices of gates that must execute before gate i.
	// Each predecessor appears once even if it shares several qubits.
	Preds [][]int
	// Succs is the transpose of Preds.
	Succs [][]int
}

// BuildDAG computes gate dependencies in a single pass over the circuit.
func BuildDAG(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{
		Circuit: c,
		Preds:   make([][]int, n),
		Succs:   make([][]int, n),
	}
	last := make([]int, c.NumQubits) // last gate index per qubit, -1 if none
	for i := range last {
		last[i] = -1
	}
	seen := make(map[int]bool)
	for i, g := range c.Gates {
		clear(seen)
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 && !seen[p] {
				seen[p] = true
				d.Preds[i] = append(d.Preds[i], p)
				d.Succs[p] = append(d.Succs[p], i)
			}
			last[q] = i
		}
	}
	return d
}

// Layers partitions gate indices into moments: sets of gates on disjoint
// qubits that can execute simultaneously, in ASAP order. Barriers occupy
// their own conceptual position but are not emitted into layers.
func (d *DAG) Layers() [][]int {
	c := d.Circuit
	level := make([]int, len(c.Gates))
	maxLevel := -1
	qubitLevel := make([]int, c.NumQubits)
	for i := range qubitLevel {
		qubitLevel[i] = -1
	}
	for i, g := range c.Gates {
		l := -1
		for _, q := range g.Qubits {
			if qubitLevel[q] > l {
				l = qubitLevel[q]
			}
		}
		if g.Name != Barrier {
			l++
		}
		level[i] = l
		for _, q := range g.Qubits {
			qubitLevel[q] = l
		}
		if l > maxLevel {
			maxLevel = l
		}
	}
	layers := make([][]int, maxLevel+1)
	for i, g := range c.Gates {
		if g.Name == Barrier {
			continue
		}
		layers[level[i]] = append(layers[level[i]], i)
	}
	return layers
}
