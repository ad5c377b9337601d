package experiments

import (
	"bytes"
	"testing"

	"trios/internal/noise"
	"trios/internal/topo"
)

func TestToffoliTrajectorySmall(t *testing.T) {
	g := topo.Line(8)
	trips := [][3]int{{0, 3, 6}, {1, 4, 7}}
	model := noise.Johannesburg0819()
	rs, err := ToffoliTrajectory(g, trips, model, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d rows", len(rs))
	}
	for _, r := range rs {
		for ci := range ToffoliConfigs {
			if r.CNOTs[ci] <= 0 {
				t.Errorf("triplet %v config %d: no CNOTs", r.Triplet, ci)
			}
			cf, mc := r.ClosedForm[ci], r.Trajectory[ci]
			if cf <= 0 || cf >= 1 {
				t.Errorf("closed form %v out of range", cf)
			}
			if mc < 0 || mc > 1 {
				t.Errorf("trajectory %v out of range", mc)
			}
			// The trajectory can only beat the closed form (errors cancel);
			// allow generous sampling slack below it.
			if mc < cf-0.2 {
				t.Errorf("trajectory %v implausibly below closed form %v", mc, cf)
			}
		}
	}
	var buf bytes.Buffer
	WriteToffoliTrajectory(&buf, 150, rs)
	if buf.Len() == 0 {
		t.Error("empty report")
	}

	// Determinism across worker counts.
	old := Workers
	defer func() { Workers = old }()
	Workers = 1
	serial, err := ToffoliTrajectory(g, trips, model, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	Workers = 7
	parallel, err := ToffoliTrajectory(g, trips, model, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs across worker counts: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

func TestRPTrajectorySmall(t *testing.T) {
	rs, err := RPTrajectory(noise.Johannesburg0819(), 3, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d rows", len(rs))
	}
	r := rs[0]
	if r.RPCNOTs >= r.ExactCNOTs {
		t.Errorf("relative-phase variant should save CNOTs: exact %d, rp %d", r.ExactCNOTs, r.RPCNOTs)
	}
	for _, v := range []float64{r.ExactCF, r.RPCF, r.ExactMC, r.RPMC} {
		if v < 0 || v > 1 {
			t.Errorf("probability %v out of range", v)
		}
	}
	var buf bytes.Buffer
	WriteRPTrajectory(&buf, 100, rs)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}
