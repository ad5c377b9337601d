package decompose

import (
	"fmt"

	"trios/internal/circuit"
)

// The MCX constructions below are the building blocks of the paper's CnX
// benchmark suite (Table 1). They expand a multi-controlled X into Toffolis
// using different ancilla budgets:
//
//   - MCXDirty:  Barenco et al. V-chain, n-2 *dirty* (borrowed) ancillas,
//     4(n-2) Toffolis. Used by cnx_dirty and cnx_halfborrowed.
//   - MCXClean:  AND-ladder with n-2 *clean* (|0>) ancillas, 2n-3 Toffolis.
//     Used by cnx_logancilla and Grover's oracle.
//   - MCXBorrowed: recursive Barenco Lemma 7.3 split that works with as few
//     as one borrowed bit. Used by the in-place constructions.

// MCXDirty appends a decomposition of X on target controlled on all of
// controls, borrowing len(controls)-2 dirty ancillas whose state is
// arbitrary and is restored. Requires len(dirty) >= len(controls)-2.
func MCXDirty(out *circuit.Circuit, controls []int, target int, dirty []int) error {
	n := len(controls)
	switch n {
	case 0:
		out.X(target)
		return nil
	case 1:
		out.CX(controls[0], target)
		return nil
	case 2:
		out.CCX(controls[0], controls[1], target)
		return nil
	}
	m := n - 2
	if len(dirty) < m {
		return fmt.Errorf("decompose: mcx with %d controls needs %d dirty ancillas, have %d", n, m, len(dirty))
	}
	a := dirty[:m]
	half := func() {
		out.CCX(controls[n-1], a[m-1], target)
		for i := m - 1; i >= 1; i-- {
			out.CCX(controls[i+1], a[i-1], a[i])
		}
		out.CCX(controls[0], controls[1], a[0])
		for i := 1; i <= m-1; i++ {
			out.CCX(controls[i+1], a[i-1], a[i])
		}
	}
	half()
	half()
	return nil
}

// MCXClean appends a decomposition of X on target controlled on all of
// controls using len(controls)-2 clean |0> ancillas, which are returned to
// |0>. Requires len(clean) >= len(controls)-2. Emits 2n-3 Toffolis.
func MCXClean(out *circuit.Circuit, controls []int, target int, clean []int) error {
	n := len(controls)
	switch n {
	case 0:
		out.X(target)
		return nil
	case 1:
		out.CX(controls[0], target)
		return nil
	case 2:
		out.CCX(controls[0], controls[1], target)
		return nil
	}
	m := n - 2
	if len(clean) < m {
		return fmt.Errorf("decompose: mcx with %d controls needs %d clean ancillas, have %d", n, m, len(clean))
	}
	a := clean[:m]
	// Compute AND ladder: a[0] = c0 & c1, a[i] = a[i-1] & c[i+1].
	out.CCX(controls[0], controls[1], a[0])
	for i := 1; i < m; i++ {
		out.CCX(a[i-1], controls[i+1], a[i])
	}
	out.CCX(a[m-1], controls[n-1], target)
	// Uncompute.
	for i := m - 1; i >= 1; i-- {
		out.CCX(a[i-1], controls[i+1], a[i])
	}
	out.CCX(controls[0], controls[1], a[0])
	return nil
}

// MCXBorrowed appends a decomposition of X on target controlled on all of
// controls, using any number >= 1 of borrowed (dirty, restored) bits. With
// enough borrowed bits it reduces to the V-chain; with fewer it applies the
// Barenco Lemma 7.3 split
//
//	C^{A|B}X(t) = C^A X(b) C^{B,b}X(t) C^A X(b) C^{B,b}X(t)
//
// where b is one borrowed bit and each half borrows the other half's wires.
func MCXBorrowed(out *circuit.Circuit, controls []int, target int, borrowed []int) error {
	n := len(controls)
	if n <= 2 {
		return MCXDirty(out, controls, target, nil)
	}
	if len(borrowed) >= n-2 {
		return MCXDirty(out, controls, target, borrowed)
	}
	if len(borrowed) == 0 {
		return fmt.Errorf("decompose: mcx with %d controls needs at least one borrowed bit", n)
	}
	b := borrowed[0]
	k := (n + 1) / 2
	ctlA, ctlB := controls[:k], controls[k:]
	ctlBb := append(append([]int{}, ctlB...), b)
	// Each half-gate may borrow the other half's control wires plus the
	// outer target/carrier, which are untouched by that half.
	borrowA := append(append([]int{}, ctlB...), target)
	borrowB := ctlA
	for rep := 0; rep < 2; rep++ {
		if err := MCXBorrowed(out, ctlA, b, borrowA); err != nil {
			return err
		}
		if err := MCXBorrowed(out, ctlBb, target, borrowB); err != nil {
			return err
		}
	}
	return nil
}

// MCXCleanRP is MCXClean with the ancilla-ladder Toffolis emitted as
// relative-phase Margolus gates (RCCX on the compute side, RCCXdg on the
// uncompute side). Between a compute/uncompute pair the ancilla and its
// inputs are used only as controls, which commute with the Margolus gate's
// diagonal relative phase, so the phases cancel exactly and the network
// equals MCXClean as a unitary — at 3 CNOTs per ladder Toffoli instead of
// 6-8 (Maslov's relative-phase Toffoli optimization). The single
// target-acting Toffoli stays exact.
func MCXCleanRP(out *circuit.Circuit, controls []int, target int, clean []int) error {
	n := len(controls)
	if n <= 2 {
		return MCXDirty(out, controls, target, nil)
	}
	m := n - 2
	if len(clean) < m {
		return fmt.Errorf("decompose: mcx with %d controls needs %d clean ancillas, have %d", n, m, len(clean))
	}
	a := clean[:m]
	out.RCCX(controls[0], controls[1], a[0])
	for i := 1; i < m; i++ {
		out.RCCX(a[i-1], controls[i+1], a[i])
	}
	out.CCX(a[m-1], controls[n-1], target)
	for i := m - 1; i >= 1; i-- {
		out.RCCXdg(a[i-1], controls[i+1], a[i])
	}
	out.RCCXdg(controls[0], controls[1], a[0])
	return nil
}
