// The test-only-exports guard: every function declared in a non-test file
// under internal/ must be reached by a program this repository ships, or
// be named on the testSupport allowlist below.
package trios_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// testSupport names the functions under internal/ that no shipped program
// reaches and that stay in non-test files anyway: test support that tests
// in several packages share, which Go cannot keep in one package's _test.go
// files. An entry is "pkg.Func" or "pkg.Type.Method", pkg being the path
// below internal/. Each group names the tests that use it.
var testSupport = []string{
	// The Prometheus exposition linter: TestWriteRuntimeMetricsLintsClean
	// (obs), TestMetricsExpositionLints (service) and
	// TestFleetDebugTracesAndMetrics (fleet).
	"obs.LintExposition",

	// Simulation equivalence checks, the reference every compiled output is
	// held to: the compiler, decompose, optimize, qasm, rewrite, route,
	// benchmarks and sim tests and the root integration tests
	// (TestCompiledAddersStillAdd, TestRelativePhaseTriosEndToEnd, ...).
	"sim.Equivalent",
	"sim.CompiledEquivalent",
	"sim.SameClassicalFunction",
	// The serial Monte-Carlo loop that Engine.MonteCarlo is compared with:
	// TestTrajectoryAgreesWithSerial and TestMonteCarloBitIdenticalToLegacy
	// (sim), TestClosedFormAgainstMonteCarlo (compiler).
	"sim.MonteCarloSuccess",

	// A generated Clifford+T stream of any length: the benchmarks, service,
	// triosd and root stream tests.
	"benchmarks.StreamCliffordT",

	// Ring devices and distance-table reads: the compiler, route, layout and
	// topo tests.
	"topo.Ring",
	"topo.DistTable.At",
	"topo.DistTable.Row",

	// Invariant checks: the layout and route tests validate layouts; the
	// stab, sim and root tests classify Clifford circuits.
	"layout.Layout.Validate",
	"stab.IsClifford",

	// The per-edge success model that the calibrated estimate is checked
	// against: TestSuccessWithCalibrationMatchesEdgeModel (noise) and the
	// compiler's noise-aware routing tests (TestNoiseAwareRoutingAvoidsHotEdges,
	// TestStochasticNoiseAwareImprovesSuccess, ...), which draw their edge
	// errors from it.
	"noise.UniformEdgeMap",
	"noise.SyntheticCalibration",
	"noise.EdgeMap.Error",
	"noise.EdgeMap.SetError",
	"noise.SuccessProbabilityEdges",

	// The paper's "20x improved" device, per qubit and per edge:
	// TestImproved (device), TestNoiseAwareBeatsUniform and
	// TestRunNoiseBenchDeterministic (experiments).
	"device.Calibration.Improved",

	// Circuit builders and helpers that test circuits use across packages
	// (decompose, optimize, rewrite, sim, stab, compiler and root tests).
	"circuit.Circuit.I",
	"circuit.Circuit.Y",
	"circuit.Circuit.Z",
	"circuit.Circuit.SX",
	"circuit.Circuit.SXdg",
	"circuit.Circuit.CZ",
	"circuit.Circuit.CCZ",
	"circuit.Circuit.MCX",
	"circuit.Circuit.Copy",
	"circuit.Circuit.Inverse",
	"circuit.Circuit.Equal",
	"circuit.Circuit.AppendCircuit",
}

// TestNoTestOnlyExports type-checks every non-test file of the root module
// and of perfbench, follows references from the shipped programs' main and
// init functions and package-level initializers, and fails on any function
// under internal/ that only tests reach. A method that implements a method
// of an interface declared in the module or in a package it imports counts
// as reached, since a caller may reach it through the interface.
func TestNoTestOnlyExports(t *testing.T) {
	start := time.Now()
	prog, err := loadRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	reached := prog.reach(prog.roots)
	supportRoots := make([]*types.Func, 0, len(testSupport))
	for _, key := range testSupport {
		fn := prog.byKey[key]
		switch {
		case fn == nil:
			t.Errorf("testSupport entry %s names no function under internal/; drop it", key)
		case reached[fn]:
			t.Errorf("testSupport entry %s is reached by shipped code; drop it", key)
		default:
			supportRoots = append(supportRoots, fn)
		}
	}
	for fn := range prog.reach(supportRoots) {
		reached[fn] = true
	}
	var unreached []string
	for _, fn := range prog.internal {
		if !reached[fn] {
			pos := prog.fset.Position(fn.Pos())
			unreached = append(unreached, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, prog.keys[fn]))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: no shipped program reaches it; delete it, move it into its package's _test.go files, or list it in testSupport with the tests that use it", u)
	}
	t.Logf("%d packages, %d functions under internal/, %s", len(prog.pkgs), len(prog.internal), time.Since(start).Round(time.Millisecond))
}

// repoProgram is the repository's non-test code, type-checked, as a graph
// of function references.
type repoProgram struct {
	fset *token.FileSet
	pkgs map[string]*repoPackage // by import path
	// refs[f] lists the functions f's body refers to, by call or as a value.
	refs map[*types.Func][]*types.Func
	// roots are what runs without a call from module code: main and init
	// functions, references in package-level declarations, and methods
	// that implement an interface method.
	roots    []*types.Func
	internal []*types.Func          // every function declared under internal/
	keys     map[*types.Func]string // internal function -> testSupport key
	byKey    map[string]*types.Func
}

type repoPackage struct {
	files []*ast.File
	pkg   *types.Package // nil while it is being checked
	info  *types.Info
}

// loadRepo type-checks the non-test files of every package under root. The
// root module is "trios" and perfbench is "trios/perfbench", so a
// package's import path is its directory under "trios". The standard
// library is checked from source.
func loadRepo(root string) (*repoProgram, error) {
	// Check the standard library without cgo: its pure-Go files declare
	// the same API, and cgo would need a C toolchain.
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = saved }()

	prog := &repoProgram{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*repoPackage{},
		refs:  map[*types.Func][]*types.Func{},
		keys:  map[*types.Func]string{},
		byKey: map[string]*types.Func{},
	}
	l := &repoLoader{prog: prog, dirs: map[string]string{}}
	l.std = importer.ForCompiler(prog.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := "trios"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		l.dirs[importPath] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	prog.index(paths)
	return prog, nil
}

// repoLoader imports repository packages by type-checking their source and
// hands every other import path to the standard library's importer.
type repoLoader struct {
	prog *repoProgram
	std  types.ImporterFrom
	dirs map[string]string // import path -> directory
}

func (l *repoLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *repoLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s has no non-test Go files", path)
	}
	return p.pkg, nil
}

// load type-checks one repository package (after its imports) and returns
// nil for a directory without non-test Go files.
func (l *repoLoader) load(path string) (*repoPackage, error) {
	if p, ok := l.prog.pkgs[path]; ok {
		if p.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	dir := l.dirs[path]
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &repoPackage{}
	l.prog.pkgs[path] = p
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.prog.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.prog.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	return p, nil
}

// index records every function declaration's references and the roots.
func (prog *repoProgram) index(paths []string) {
	var methods []*types.Func
	for _, path := range paths {
		p := prog.pkgs[path]
		if p == nil {
			continue
		}
		sub, isInternal := strings.CutPrefix(path, "trios/internal/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					prog.roots = append(prog.roots, funcRefs(p.info, decl)...)
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if fd.Body != nil {
					prog.refs[fn] = funcRefs(p.info, fd.Body)
				}
				switch {
				case fd.Recv == nil && fd.Name.Name == "init",
					fd.Recv == nil && fd.Name.Name == "main" && p.pkg.Name() == "main":
					prog.roots = append(prog.roots, fn)
				case fd.Recv != nil:
					methods = append(methods, fn)
				}
				if isInternal {
					key := sub + "." + fn.Name()
					if recv := recvName(fn); recv != "" {
						key = sub + "." + recv + "." + fn.Name()
					}
					prog.internal = append(prog.internal, fn)
					prog.keys[fn] = key
					prog.byKey[key] = fn
				}
			}
		}
	}
	ifaces := prog.interfaces()
	for _, m := range methods {
		if implementsAny(m, ifaces[m.Name()]) {
			prog.roots = append(prog.roots, m)
		}
	}
}

// interfaces indexes by method name every interface declared at package
// level in the module or in a package it imports, every interface type
// literal in the module's code, and error.
func (prog *repoProgram) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, t := range errorsInterfaces() {
		add(t)
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range prog.pkgs {
		visit(p.pkg)
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	return byName
}

// errorsInterfaces returns the interfaces that errors.Is, errors.As and
// errors.Unwrap declare as literals inside their bodies, which a scan of
// package-level declarations does not see.
func errorsInterfaces() []types.Type {
	const src = `package errs
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errs.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("errs", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type())
	}
	return out
}

// implementsAny reports whether m's receiver type, or a pointer to it,
// implements one of ifaces, each of which declares a method of m's name.
func implementsAny(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range ifaces {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// reach returns every function reachable from roots through refs.
func (prog *repoProgram) reach(roots []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		stack = append(stack, prog.refs[fn]...)
	}
	return seen
}

// funcRefs lists the functions and methods that n refers to.
func funcRefs(info *types.Info, n ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// recvName is the name of fn's receiver type, or "" for a function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
