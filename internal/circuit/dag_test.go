package circuit

import "testing"

func TestDAGDeps(t *testing.T) {
	c := New(3)
	c.H(0)         // 0
	c.CX(0, 1)     // 1 depends on 0
	c.H(2)         // 2 independent
	c.CCX(0, 1, 2) // 3 depends on 1 and 2
	d := BuildDAG(c)
	if len(d.Preds[0]) != 0 || len(d.Preds[2]) != 0 {
		t.Error("gates 0 and 2 should have no predecessors")
	}
	if len(d.Preds[1]) != 1 || d.Preds[1][0] != 0 {
		t.Errorf("preds[1] = %v", d.Preds[1])
	}
	if len(d.Preds[3]) != 2 {
		t.Errorf("preds[3] = %v", d.Preds[3])
	}
	if len(d.Succs[0]) != 1 || d.Succs[0][0] != 1 {
		t.Errorf("succs[0] = %v", d.Succs[0])
	}
}

func TestDAGNoDuplicatePreds(t *testing.T) {
	c := New(2)
	c.CX(0, 1) // 0
	c.CX(0, 1) // 1 shares both qubits with 0; must appear once
	d := BuildDAG(c)
	if len(d.Preds[1]) != 1 {
		t.Errorf("preds[1] = %v, want single entry", d.Preds[1])
	}
}

func TestLayersRespectDependencies(t *testing.T) {
	c := New(3)
	c.H(0).CX(0, 1).CX(1, 2).H(0)
	layers := BuildDAG(c).Layers()
	// h0 | cx01, | cx12 h0(second can go at layer 2 with cx12? h0 touches
	// qubit 0 last used by cx01 at layer 1, so layer 2 alongside cx12).
	if len(layers) != 3 {
		t.Fatalf("layers = %v", layers)
	}
	pos := make(map[int]int)
	for li, l := range layers {
		for _, gi := range l {
			pos[gi] = li
		}
	}
	d := BuildDAG(c)
	for gi, preds := range d.Preds {
		for _, p := range preds {
			if pos[p] >= pos[gi] {
				t.Errorf("gate %d at layer %d not after pred %d at layer %d", gi, pos[gi], p, pos[p])
			}
		}
	}
}

func TestLayersExcludeBarriers(t *testing.T) {
	c := New(2)
	c.H(0).Barrier().H(1)
	layers := BuildDAG(c).Layers()
	total := 0
	for _, l := range layers {
		total += len(l)
	}
	if total != 2 {
		t.Errorf("layers contain %d gates, want 2 (barrier excluded)", total)
	}
}
