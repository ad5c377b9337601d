package route

import "trios/internal/circuit"

// frontier is the dependency frontier both layer routers schedule on. Gate
// i waits on the latest earlier gate on each of its qubits: next links each
// (gate, operand) wire to the following gate on that qubit, pending counts
// the wire links into a gate that have not run, and ready lists, in
// ascending gate order, the gates not yet run whose links all have. A gate
// readies only later gates, so at most one ready gate holds any qubit and
// the ready list never outgrows the device.
type frontier struct {
	off     []int32 // gate i's wires are next[off[i]:off[i+1]]
	next    []int32 // the next gate on the wire's qubit, or -1
	pending []int32
	done    []bool
	ready   []int
	left    int // gates not yet run
}

// newFrontier links c's gates in one pass over them.
func newFrontier(c *circuit.Circuit) *frontier {
	n := len(c.Gates)
	f := &frontier{
		off:     make([]int32, n+1),
		next:    make([]int32, 0, 2*n),
		pending: make([]int32, n),
		done:    make([]bool, n),
		left:    n,
	}
	last := make([]int32, c.NumQubits) // wire slot of the latest gate on each qubit, -1 if none
	for q := range last {
		last[q] = -1
	}
	for i, g := range c.Gates {
		f.off[i] = int32(len(f.next))
		for _, q := range g.Qubits {
			if w := last[q]; w >= 0 {
				f.next[w] = int32(i)
				f.pending[i]++
			}
			last[q] = int32(len(f.next))
			f.next = append(f.next, -1)
		}
		if f.pending[i] == 0 {
			f.ready = append(f.ready, i)
		}
	}
	f.off[n] = int32(len(f.next))
	return f
}

// drain sweeps the ready list in ascending gate order, offering each gate to
// run, and sweeps again until a sweep runs none. run reports whether it ran
// the gate; a gate it runs leaves the list and readies its successors. They
// all follow the gate, so they join the current sweep ahead of the cursor,
// and the gates run in the order a full program-order rescan to a fixpoint
// runs them.
func (f *frontier) drain(run func(i int) (bool, error)) error {
	for ran := true; ran; {
		ran = false
		for k := 0; k < len(f.ready); {
			i := f.ready[k]
			ok, err := run(i)
			if err != nil {
				return err
			}
			if !ok {
				k++
				continue
			}
			ran = true
			f.ready = append(f.ready[:k], f.ready[k+1:]...)
			f.finish(i, k)
		}
	}
	return nil
}

// finish marks gate i run and inserts the successors it readies into the
// ready list, at or after position from.
func (f *frontier) finish(i, from int) {
	f.done[i] = true
	f.left--
	for _, j := range f.next[f.off[i]:f.off[i+1]] {
		if j < 0 {
			continue
		}
		if f.pending[j]--; f.pending[j] > 0 {
			continue
		}
		at := from
		for at < len(f.ready) && f.ready[at] < int(j) {
			at++
		}
		f.ready = append(f.ready, 0)
		copy(f.ready[at+1:], f.ready[at:])
		f.ready[at] = int(j)
	}
}
