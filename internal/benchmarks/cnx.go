// Package benchmarks generates the NISQ benchmark and quantum-subroutine
// circuits of the paper's Table 1: four CnX (many-controlled-NOT)
// constructions with different ancilla budgets, three adders, an
// incrementer, Grover search, Bernstein-Vazirani, and QAOA Max-Cut.
//
// Each generator is verified in tests against its functional specification
// (truth tables for reversible circuits, statevector checks otherwise), and
// the registry records the paper's published gate counts next to ours.
package benchmarks

import (
	"fmt"
	"math"

	"trios/internal/circuit"
	"trios/internal/decompose"
)

// CnXDirty returns the Barenco V-chain CnX with nControls controls,
// nControls-2 dirty ancillas, and one target: 4(n-2) Toffolis.
// Wire order: controls, ancillas, target.
// The paper's cnx_dirty-11 is CnXDirty(6): 11 qubits, 16 Toffolis.
func CnXDirty(nControls int) (*circuit.Circuit, error) {
	if nControls < 3 {
		return nil, fmt.Errorf("benchmarks: cnx_dirty needs >= 3 controls, got %d", nControls)
	}
	n := 2*nControls - 1
	c := circuit.New(n)
	controls := seq(0, nControls)
	dirty := seq(nControls, nControls-2)
	target := n - 1
	if err := decompose.MCXDirty(c, controls, target, dirty); err != nil {
		return nil, err
	}
	return c, nil
}

// CnXHalfBorrowed returns the same V-chain at the size where roughly half
// the register is borrowed bits. The paper's cnx_halfborrowed-19 is
// CnXHalfBorrowed(10): 10 controls + 8 borrowed + target = 19 qubits,
// 32 Toffolis.
func CnXHalfBorrowed(nControls int) (*circuit.Circuit, error) {
	return CnXDirty(nControls)
}

// CnXLogAncilla returns the clean-ancilla AND-ladder CnX: nControls
// controls, nControls-2 clean |0> ancillas, one target, 2n-3 Toffolis.
// The paper's cnx_logancilla-19 is CnXLogAncilla(10): 19 qubits, 17 Toffolis.
func CnXLogAncilla(nControls int) (*circuit.Circuit, error) {
	if nControls < 3 {
		return nil, fmt.Errorf("benchmarks: cnx_logancilla needs >= 3 controls, got %d", nControls)
	}
	n := 2*nControls - 1
	c := circuit.New(n)
	controls := seq(0, nControls)
	clean := seq(nControls, nControls-2)
	target := n - 1
	if err := decompose.MCXClean(c, controls, target, clean); err != nil {
		return nil, err
	}
	return c, nil
}

// CnXLogAncillaRP is CnXLogAncilla with relative-phase (Margolus) Toffolis
// on the compute/uncompute ladder — an architecture-tuned refinement in the
// spirit of the paper's §6.3: the router places each Margolus trio with its
// target in the middle and the second pass emits 3 CNOTs instead of 8.
func CnXLogAncillaRP(nControls int) (*circuit.Circuit, error) {
	if nControls < 3 {
		return nil, fmt.Errorf("benchmarks: cnx_logancilla needs >= 3 controls, got %d", nControls)
	}
	n := 2*nControls - 1
	c := circuit.New(n)
	if err := decompose.MCXCleanRP(c, seq(0, nControls), n-1, seq(nControls, nControls-2)); err != nil {
		return nil, err
	}
	return c, nil
}

// CnXInplace returns an ancilla-free CnX on nControls+1 wires using the
// Barenco controlled-root recursion: C^nX = CV(c_n, t) C^{n-1}X(c_n)
// CV†(c_n, t) C^{n-1}X(c_n) C^{n-1}(V)(t), with the inner multi-controlled
// X gates borrowing the target wire. Controlled roots X^(1/2^k) are built as
// H-conjugated controlled phases.
//
// The paper's cnx_inplace-4 is CnXInplace(3). The authors generate it from
// Gidney's incrementer-based in-place construction (54 Toffolis); this
// controlled-root construction computes the same gate with a different,
// smaller circuit: 2 Toffolis and 23 CNOTs against the paper's 54 and 490
// (go run ./cmd/experiments -exp table1 prints "cnx_inplace-4 ... 54 -> 2
// ... 490 -> 23").
func CnXInplace(nControls int) (*circuit.Circuit, error) {
	if nControls < 1 {
		return nil, fmt.Errorf("benchmarks: cnx_inplace needs >= 1 control")
	}
	c := circuit.New(nControls + 1)
	if err := InplaceMCX(c, seq(0, nControls), nControls); err != nil {
		return nil, err
	}
	return c, nil
}

// InplaceMCX appends an ancilla-free multi-controlled X built from Toffolis,
// CNOTs, and controlled X-roots, usable when no borrowable wire exists.
func InplaceMCX(out *circuit.Circuit, controls []int, target int) error {
	n := len(controls)
	if n <= 2 {
		return decompose.MCXDirty(out, controls, target, nil)
	}
	last := controls[n-1]
	rest := controls[:n-1]
	cxRoot(out, last, target, 0.5)
	if err := decompose.MCXBorrowed(out, rest, last, []int{target}); err != nil {
		return err
	}
	cxRoot(out, last, target, -0.5)
	if err := decompose.MCXBorrowed(out, rest, last, []int{target}); err != nil {
		return err
	}
	return cnRoot(out, rest, target, 0.5)
}

// cnRoot appends a multi-controlled X^alpha via the standard square-root
// recursion.
func cnRoot(out *circuit.Circuit, controls []int, target int, alpha float64) error {
	if len(controls) == 1 {
		cxRoot(out, controls[0], target, alpha)
		return nil
	}
	n := len(controls)
	last := controls[n-1]
	rest := controls[:n-1]
	cxRoot(out, last, target, alpha/2)
	if err := decompose.MCXBorrowed(out, rest, last, []int{target}); err != nil {
		return err
	}
	cxRoot(out, last, target, -alpha/2)
	if err := decompose.MCXBorrowed(out, rest, last, []int{target}); err != nil {
		return err
	}
	return cnRoot(out, rest, target, alpha/2)
}

// cxRoot appends a controlled X^alpha: X^alpha = H Z^alpha H and controlled
// Z^alpha is a controlled phase of pi*alpha.
func cxRoot(out *circuit.Circuit, ctl, tgt int, alpha float64) {
	out.H(tgt)
	out.CP(math.Pi*alpha, ctl, tgt)
	out.H(tgt)
}

// seq returns [start, start+1, ..., start+count-1].
func seq(start, count int) []int {
	s := make([]int, count)
	for i := range s {
		s[i] = start + i
	}
	return s
}
