package experiments

import (
	"testing"

	"trios/internal/noise"
	"trios/internal/topo"
)

// TestPaperTripletDistanceLabels cross-validates the Johannesburg topology
// model against the paper: the distance label printed under each of the 35
// Figure-6/7 triples must equal TripletDistance on our coupling graph. A
// single wrong edge in topo.Johannesburg would break several labels.
func TestPaperTripletDistanceLabels(t *testing.T) {
	g := topo.Johannesburg()
	trips := PaperTriplets()
	want := PaperTripletDistances()
	if len(trips) != 35 || len(want) != 35 {
		t.Fatalf("expected 35 paper triples, got %d/%d", len(trips), len(want))
	}
	for i, trip := range trips {
		if got := TripletDistance(g, trip); got != want[i] {
			t.Errorf("triple %v: distance %d, paper label %d", trip, got, want[i])
		}
	}
}

func TestPaperTripletsValid(t *testing.T) {
	seen := map[[3]int]bool{}
	for _, trip := range PaperTriplets() {
		if trip[0] == trip[1] || trip[1] == trip[2] || trip[0] == trip[2] {
			t.Errorf("triple %v has duplicates", trip)
		}
		for _, q := range trip {
			if q < 0 || q > 19 {
				t.Errorf("triple %v outside device", trip)
			}
		}
		if seen[trip] {
			t.Errorf("duplicate triple %v", trip)
		}
		seen[trip] = true
	}
}

// TestPaperTripletExperiment runs the Fig. 6/7 experiment on the exact
// published triples and checks the headline claims hold on them.
func TestPaperTripletExperiment(t *testing.T) {
	g := topo.Johannesburg()
	rs, err := ToffoliExperiment(g, PaperTriplets(), noise.Johannesburg0819(), 16, 2021)
	if err != nil {
		t.Fatal(err)
	}
	baseCnots := GeoMeanColumn(rs, CNOTsAsFloats, 0)
	trios8Cnots := GeoMeanColumn(rs, CNOTsAsFloats, 3)
	reduction := 1 - trios8Cnots/baseCnots
	// Paper: 35% reduction (geomeans 29 -> 19). Allow a generous band.
	if reduction < 0.2 || reduction > 0.5 {
		t.Errorf("gate reduction on paper triples = %.0f%%, expected 20-50%% (paper 35%%)", 100*reduction)
	}
	// Trios-8 must win on every distance >= 4 triple.
	for _, r := range rs {
		if r.Distance >= 4 && r.CNOTs[3] >= r.CNOTs[0] {
			t.Errorf("triple %v (dist %d): trios %d >= baseline %d CNOTs",
				r.Triplet, r.Distance, r.CNOTs[3], r.CNOTs[0])
		}
	}
}

// PaperTripletDistances returns the distance labels printed under each
// triple in Figures 6 and 7, aligned with PaperTriplets.
func PaperTripletDistances() []int {
	return []int{
		10, 10, 9, 9, 9,
		8, 8, 8, 8, 8,
		7, 7, 7, 7, 7,
		6, 6, 6, 6, 6,
		5, 5, 5, 5, 5,
		4, 4, 4, 4, 4,
		3, 3, 3, 2, 2,
	}
}
