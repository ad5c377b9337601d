package template

import (
	"context"
	"strings"
	"testing"

	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/sim"
	"trios/internal/topo"
)

// testLibrary builds a small library: two Toffoli chains and a 4-qubit
// mixing block.
func testLibrary(t *testing.T) *Library {
	t.Helper()
	mix := circuit.New(4)
	mix.H(0)
	mix.CX(0, 1)
	mix.CX(1, 2)
	mix.CX(2, 3)
	tm, err := New("mix-4", mix)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New("toffoli_chain-2", toffoliChain(2))
	if err != nil {
		t.Fatal(err)
	}
	c4, err := New("toffoli_chain-4", toffoliChain(4))
	if err != nil {
		t.Fatal(err)
	}
	return NewLibrary(tm, c2, c4)
}

func testOpts() compiler.Options {
	return compiler.Options{Pipeline: compiler.TriosPipeline, Placement: compiler.PlaceGreedy, Optimize: true, Seed: 1}
}

// sameCompile asserts two results carry identical compiled artifacts.
func sameCompile(t *testing.T, label string, got, want *compiler.Result) {
	t.Helper()
	if !got.Physical.Equal(want.Physical) {
		t.Fatalf("%s: compiled circuits differ (%d vs %d gates)", label, len(got.Physical.Gates), len(want.Physical.Gates))
	}
	if got.SwapsAdded != want.SwapsAdded {
		t.Fatalf("%s: swaps differ: %d vs %d", label, got.SwapsAdded, want.SwapsAdded)
	}
	for v := range want.Initial {
		if got.Initial[v] != want.Initial[v] || got.Final[v] != want.Final[v] {
			t.Fatalf("%s: layouts differ at qubit %d", label, v)
		}
	}
}

func TestExactHitMatchesFullPipelineByteForByte(t *testing.T) {
	g := topo.Line(8)
	lib := testLibrary(t)
	store := NewStore(lib)
	opts := testOpts()
	n, err := store.Precompile(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n != lib.Len() {
		t.Fatalf("precompiled %d fragments, library has %d templates", n, lib.Len())
	}
	for _, tpl := range lib.Templates() {
		// Rebuild the input independently so the digest, not pointer
		// identity, carries the match.
		rebuilt := circuit.New(tpl.Circuit.NumQubits)
		for _, gt := range tpl.Circuit.Gates {
			rebuilt.Append(gt)
		}
		plain, err := compiler.Compile(rebuilt, g, opts)
		if err != nil {
			t.Fatalf("%s plain: %v", tpl.Name, err)
		}
		withTpl := opts
		withTpl.Templates = store
		hit, err := compiler.Compile(rebuilt, g, withTpl)
		if err != nil {
			t.Fatalf("%s templated: %v", tpl.Name, err)
		}
		sameCompile(t, tpl.Name, hit, plain)
		if hit.Input != rebuilt {
			t.Fatalf("%s: served result not re-labeled with the request input", tpl.Name)
		}
		last := hit.Passes[len(hit.Passes)-1]
		if last.Pass != "template:stitch" {
			t.Fatalf("%s: last pass metric is %q, want template:stitch", tpl.Name, last.Pass)
		}
	}
	st := store.Stats()
	if st.Hits != uint64(lib.Len()) || st.Stitched != 0 {
		t.Fatalf("stats = %+v, want %d exact hits and no stitches", st, lib.Len())
	}
}

func TestPrefixStitchIsRoutedAndEquivalent(t *testing.T) {
	g := topo.Grid(2, 3)
	lib := testLibrary(t)
	store := NewStore(lib)
	opts := testOpts()
	if _, err := store.Precompile(context.Background(), g, opts); err != nil {
		t.Fatal(err)
	}
	// chain-2 (4 qubits) prefix + a tail the library does not know.
	input := circuit.New(5)
	for _, gt := range toffoliChain(2).Gates {
		input.Append(gt)
	}
	input.H(4)
	input.CX(4, 0)
	input.CX(1, 3)
	input.H(2)
	withTpl := opts
	withTpl.Templates = store
	res, err := compiler.Compile(input, g, withTpl)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Stitched != 1 {
		t.Fatalf("stats = %+v, want exactly one stitch", st)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("stitched result violates the coupling graph: %v", err)
	}
	n := input.NumQubits
	ok, err := sim.CompiledEquivalent(input, res.Physical, g.NumQubits(), res.Initial[:n], res.Final[:n], 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stitched circuit not equivalent to input")
	}
	found := false
	for _, m := range res.Passes {
		if m.Pass == "template:stitch" {
			found = true
		}
	}
	if !found {
		t.Fatal("stitched result carries no template:stitch metric")
	}
}

func TestMissFallsBackToFullPipeline(t *testing.T) {
	g := topo.Line(8)
	store := NewStore(testLibrary(t))
	opts := testOpts()
	if _, err := store.Precompile(context.Background(), g, opts); err != nil {
		t.Fatal(err)
	}
	input := circuit.New(3)
	input.H(0)
	input.CX(1, 2)
	input.CCX(2, 1, 0)
	plain, err := compiler.Compile(input, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	withTpl := opts
	withTpl.Templates = store
	res, err := compiler.Compile(input, g, withTpl)
	if err != nil {
		t.Fatal(err)
	}
	sameCompile(t, "miss", res, plain)
	if st := store.Stats(); st.Misses == 0 {
		t.Fatalf("stats = %+v, want at least one miss", st)
	}
}

func TestPrecompileIsIdempotent(t *testing.T) {
	g := topo.Line(8)
	lib := testLibrary(t)
	store := NewStore(lib)
	opts := testOpts()
	n1, err := store.Precompile(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := store.Precompile(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != lib.Len() || n2 != 0 {
		t.Fatalf("precompile compiled %d then %d fragments, want %d then 0", n1, n2, lib.Len())
	}
	// A different option fingerprint warms its own fragments.
	other := opts
	other.Seed = 99
	n3, err := store.Precompile(context.Background(), g, other)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != lib.Len() {
		t.Fatalf("new option set compiled %d fragments, want %d", n3, lib.Len())
	}
}

func TestCacheKeySegmentsByLibraryDigest(t *testing.T) {
	opts := testOpts()
	base := opts.CacheKey()
	if !strings.Contains(base, ";templates=none") {
		t.Fatalf("bare options key %q lacks templates=none segment", base)
	}
	storeA := NewStore(testLibrary(t))
	withA := opts
	withA.Templates = storeA
	keyA := withA.CacheKey()
	if keyA == base {
		t.Fatal("attaching a template store did not change the cache key")
	}
	single, err := New("solo", toffoliChain(2))
	if err != nil {
		t.Fatal(err)
	}
	withB := opts
	withB.Templates = NewStore(NewLibrary(single))
	keyB := withB.CacheKey()
	if keyB == keyA {
		t.Fatal("different libraries share a cache key")
	}
}

func TestDefaultLibraryBuildsAndWarms(t *testing.T) {
	lib, err := DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() < 10 {
		t.Fatalf("default library has only %d templates", lib.Len())
	}
	if testing.Short() {
		return
	}
	g := topo.Johannesburg()
	store := NewStore(lib)
	n, err := store.Precompile(context.Background(), g, compiler.Options{Pipeline: compiler.TriosPipeline, Placement: compiler.PlaceGreedy, Optimize: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != lib.Len() {
		t.Fatalf("warmed %d of %d templates", n, lib.Len())
	}
	if st := store.Stats(); st.Fragments != lib.Len() {
		t.Fatalf("store holds %d fragments, want %d", st.Fragments, lib.Len())
	}
}
