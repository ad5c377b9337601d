package compiler

// This file preserves the pre-PassManager monolithic pipeline
// implementations verbatim as a golden reference: the determinism tests in
// passmgr_test.go assert that the pass-composed pipelines produce
// gate-for-gate identical output. It is test-only code and ships in no
// binary.

import (
	"fmt"

	"trios/internal/circuit"
	"trios/internal/decompose"
	"trios/internal/layout"
	"trios/internal/route"
	"trios/internal/topo"
)

// legacyCompile is the pre-refactor Compile.
func legacyCompile(input *circuit.Circuit, g *topo.Graph, opts Options) (*Result, error) {
	if input.NumQubits > g.NumQubits() {
		return nil, fmt.Errorf("compiler: circuit needs %d qubits, device %s has %d", input.NumQubits, g.Name(), g.NumQubits())
	}
	if err := input.Validate(); err != nil {
		return nil, err
	}
	var res *Result
	var err error
	switch opts.Pipeline {
	case Conventional:
		res, err = legacyCompileConventional(input, g, opts)
	case TriosPipeline:
		res, err = legacyCompileTrios(input, g, opts)
	default:
		return nil, fmt.Errorf("compiler: unknown pipeline %d", int(opts.Pipeline))
	}
	if err != nil {
		return nil, err
	}
	res.Input = input
	return res, nil
}

func legacyCompileConventional(input *circuit.Circuit, g *topo.Graph, opts Options) (*Result, error) {
	mode := opts.Mode
	if mode == decompose.Auto {
		mode = decompose.Six
	}
	decomposed, err := decompose.ToffoliAll(input, mode)
	if err != nil {
		return nil, err
	}
	cm := opts.costModel()
	init, err := initialLayout(decomposed, g, opts, cm)
	if err != nil {
		return nil, err
	}
	router, err := pickRouter(opts, false, cm, g)
	if err != nil {
		return nil, err
	}
	routed, err := router.Route(decomposed, g, init)
	if err != nil {
		return nil, err
	}
	physical, err := decompose.LowerToBasis(routed.Circuit)
	if err != nil {
		return nil, err
	}
	return &Result{
		Input:      input,
		Physical:   physical,
		Initial:    init.VirtualToPhys(),
		Final:      routed.Final.VirtualToPhys(),
		SwapsAdded: routed.SwapsAdded,
		Graph:      g,
	}, nil
}

func legacyCompileTrios(input *circuit.Circuit, g *topo.Graph, opts Options) (*Result, error) {
	kept, err := decompose.KeepToffoli(input)
	if err != nil {
		return nil, err
	}
	cm := opts.costModel()
	init, err := initialLayout(kept, g, opts, cm)
	if err != nil {
		return nil, err
	}
	router, err := pickRouter(opts, true, cm, g)
	if err != nil {
		return nil, err
	}
	routed, err := router.Route(kept, g, init)
	if err != nil {
		return nil, err
	}
	mode := opts.Mode
	if mode == decompose.Six {
		second, err := decompose.MappingAware(routed.Circuit, g, decompose.Six)
		if err != nil {
			return nil, err
		}
		fixRouter := &route.Baseline{Seed: opts.Seed + 1}
		fixed, err := fixRouter.Route(second, g, layout.Identity(g.NumQubits()))
		if err != nil {
			return nil, err
		}
		physical, err := decompose.LowerToBasis(fixed.Circuit)
		if err != nil {
			return nil, err
		}
		final := make([]int, g.NumQubits())
		for v := 0; v < g.NumQubits(); v++ {
			final[v] = fixed.Final.Phys(routed.Final.Phys(v))
		}
		return &Result{
			Input:      input,
			Physical:   physical,
			Initial:    init.VirtualToPhys(),
			Final:      final,
			SwapsAdded: routed.SwapsAdded + fixed.SwapsAdded,
			Graph:      g,
		}, nil
	}
	if mode == decompose.Auto || mode == decompose.Eight {
		second, err := decompose.MappingAware(routed.Circuit, g, mode)
		if err != nil {
			return nil, err
		}
		physical, err := decompose.LowerToBasis(second)
		if err != nil {
			return nil, err
		}
		return &Result{
			Input:      input,
			Physical:   physical,
			Initial:    init.VirtualToPhys(),
			Final:      routed.Final.VirtualToPhys(),
			SwapsAdded: routed.SwapsAdded,
			Graph:      g,
		}, nil
	}
	return nil, fmt.Errorf("compiler: unsupported toffoli mode %v", opts.Mode)
}
