package benchmarks

import "testing"

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registry has %d benchmarks, want 11", len(all))
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("grovers-9")
	if err != nil || b.PaperToffolis != 84 {
		t.Errorf("ByName grovers-9: %+v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

// TestMeasureAgainstTable1 documents how closely each generator reproduces
// the paper's published sizes. Qubit counts must match exactly. Toffoli and
// CNOT counts must match exactly for the constructions specified precisely
// by their source papers; the two Gidney-blog constructions
// (incrementer_borrowedbit, cnx_inplace) are reimplementations from the
// construction idea and land at different absolute sizes — `experiments
// -exp table1` prints both beside the paper's, and cnx.go's doc comment
// states the cnx_inplace-4 gap.
func TestMeasureAgainstTable1(t *testing.T) {
	exactToffoli := map[string]bool{
		"cnx_dirty-11":        true,
		"cnx_halfborrowed-19": true,
		"cnx_logancilla-19":   true,
		"cuccaro_adder-20":    true,
		"takahashi_adder-20":  true,
		"grovers-9":           true,
		"qft_adder-16":        true,
		"bv-20":               true,
		"qaoa_complete-10":    true,
	}
	exactCNOT := map[string]bool{
		"cnx_dirty-11":        true, // 16 x 8 = 128
		"cnx_halfborrowed-19": true, // 32 x 8 = 256
		"cnx_logancilla-19":   true, // 17 x 8 = 136
		"grovers-9":           true, // 84 x 8 = 672
		"qft_adder-16":        true, // 92 controlled phases
		"bv-20":               true,
		"qaoa_complete-10":    true,
	}
	for _, b := range All() {
		m, err := b.Measure()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if m.Qubits != b.PaperQubits {
			t.Errorf("%s: qubits = %d, paper says %d", b.Name, m.Qubits, b.PaperQubits)
		}
		if exactToffoli[b.Name] && m.Toffolis != b.PaperToffolis {
			t.Errorf("%s: toffolis = %d, paper says %d", b.Name, m.Toffolis, b.PaperToffolis)
		}
		if exactCNOT[b.Name] && m.CNOTs != b.PaperCNOTs {
			t.Errorf("%s: CNOTs = %d, paper says %d", b.Name, m.CNOTs, b.PaperCNOTs)
		}
		if b.HasToffolis != (m.Toffolis > 0) {
			t.Errorf("%s: HasToffolis=%v but measured %d toffolis", b.Name, b.HasToffolis, m.Toffolis)
		}
	}
}

// TestMeasureAdderCNOTsNearPaper keeps the ripple adders within a small
// tolerance of the published totals (the papers leave a couple of peephole
// choices open, e.g. 2- vs 3-CNOT UMA blocks).
func TestMeasureAdderCNOTsNearPaper(t *testing.T) {
	for _, name := range []string{"cuccaro_adder-20", "takahashi_adder-20"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := b.Measure()
		if err != nil {
			t.Fatal(err)
		}
		diff := m.CNOTs - b.PaperCNOTs
		if diff < 0 {
			diff = -diff
		}
		if diff > 15 {
			t.Errorf("%s: CNOTs = %d, paper says %d (diff %d > 15)", name, m.CNOTs, b.PaperCNOTs, diff)
		}
	}
}

func TestAllBenchmarksBuildAndValidate(t *testing.T) {
	for _, b := range All() {
		c, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}
