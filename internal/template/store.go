package template

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"trios/internal/circuit"
	"trios/internal/compiler"
	"trios/internal/noise"
	"trios/internal/qasm"
	"trios/internal/topo"
)

// fragKey addresses one precompiled fragment: which template, on which
// device, under which canonical option fingerprint. The option key carries
// the calibration digest, so a recalibration keys new fragments apart from
// stale ones automatically.
type fragKey struct {
	template string // template content digest
	device   string // canonical graph name
	options  string // Options.CacheKey with Templates stripped
}

// Stats reports the store's serving counters.
type Stats struct {
	// Fragments is the number of precompiled artifacts currently held.
	Fragments int
	// Hits counts exact whole-circuit matches served without any pipeline.
	Hits uint64
	// Stitched counts partial matches: a fragment prefix glued to a
	// suffix compile.
	Stitched uint64
	// Misses counts Stitch calls that fell back to the full pipeline.
	Misses uint64
}

// Store holds precompiled template fragments and implements
// compiler.TemplateSource. It is safe for concurrent use: Precompile may run
// in the background (daemon warmup) while Stitch serves compiles.
type Store struct {
	lib *Library

	mu    sync.RWMutex
	frags map[fragKey]*compiler.Result

	hits     atomic.Uint64
	stitched atomic.Uint64
	misses   atomic.Uint64
}

// NewStore builds an empty store over a library; Precompile fills it.
func NewStore(lib *Library) *Store {
	return &Store{lib: lib, frags: make(map[fragKey]*compiler.Result)}
}

// Digest implements compiler.TemplateSource: the library's content digest.
func (s *Store) Digest() string { return s.lib.Digest() }

// Library returns the template library the store serves from.
func (s *Store) Library() *Library { return s.lib }

// Stats returns a snapshot of the serving counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	n := len(s.frags)
	s.mu.RUnlock()
	return Stats{
		Fragments: n,
		Hits:      s.hits.Load(),
		Stitched:  s.stitched.Load(),
		Misses:    s.misses.Load(),
	}
}

// stripped normalizes options for fragment identity: Templates removed (a
// fragment is a plain pipeline product) — matching what compileFrom hands to
// Stitch.
func stripped(opts compiler.Options) compiler.Options {
	opts.Templates = nil
	return opts
}

// Precompile compiles every library template that fits the device under the
// given options and stores the fragments. Templates already present for this
// (device, options) are skipped, so repeated warmups are idempotent and
// cheap. It returns the number of fragments compiled by this call.
func (s *Store) Precompile(ctx context.Context, g *topo.Graph, opts compiler.Options) (int, error) {
	opts = stripped(opts)
	optKey := opts.CacheKey()
	compiled := 0
	for _, t := range s.lib.Templates() {
		if t.Circuit.NumQubits > g.NumQubits() {
			continue
		}
		key := fragKey{template: t.Digest(), device: g.Name(), options: optKey}
		s.mu.RLock()
		_, have := s.frags[key]
		s.mu.RUnlock()
		if have {
			continue
		}
		res, err := compiler.CompileContext(ctx, t.Circuit, g, opts)
		if err != nil {
			return compiled, err
		}
		s.mu.Lock()
		s.frags[key] = res
		s.mu.Unlock()
		compiled++
	}
	return compiled, nil
}

// get returns the fragment for (template digest, device, option key).
func (s *Store) get(digest, device, optKey string) *compiler.Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.frags[fragKey{template: digest, device: device, options: optKey}]
}

// Stitch implements compiler.TemplateSource. An input whose canonical form
// digest-matches a warmed template is served straight from the fragment
// (byte-identical to the full pipeline by compile determinism); an input
// that begins with a template's exact gate sequence is assembled as fragment
// + suffix compile started from the fragment's final placement. Anything
// else is a miss and the caller falls back to the full pipeline.
func (s *Store) Stitch(ctx context.Context, input *circuit.Circuit, g *topo.Graph, opts compiler.Options) (*compiler.Result, bool, error) {
	opts = stripped(opts)
	optKey := opts.CacheKey()
	start := time.Now()
	canon, err := qasm.Emit(input)
	if err != nil {
		return nil, false, nil
	}
	sum := sha256.Sum256([]byte(canon))
	digest := hex.EncodeToString(sum[:])

	// Exact whole-circuit match: the fragment IS the compile.
	if frag := s.get(digest, g.Name(), optKey); frag != nil && frag.Input.NumQubits == input.NumQubits {
		s.hits.Add(1)
		return s.serve(frag, nil, input, start), true, nil
	}

	// Prefix match: longest template whose gate sequence opens the input.
	for _, t := range s.lib.Templates() {
		n := len(t.Circuit.Gates)
		if n == 0 || n >= len(input.Gates) || t.Circuit.NumQubits > input.NumQubits {
			continue
		}
		frag := s.get(t.Digest(), g.Name(), optKey)
		if frag == nil || !gatePrefix(input, t.Circuit) {
			continue
		}
		suffix := circuit.New(input.NumQubits)
		for _, gt := range input.Gates[n:] {
			suffix.Append(gt)
		}
		sopts := opts
		// Start the suffix from where the fragment left every qubit; the
		// explicit layout overrides the placement strategy.
		sopts.InitialLayout = frag.Final
		sres, err := compiler.CompileContext(ctx, suffix, g, sopts)
		if err != nil {
			// A suffix that cannot compile under an explicit layout (it
			// compiled as part of nothing yet) falls back to the full
			// pipeline rather than failing the request.
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			continue
		}
		s.stitched.Add(1)
		out := s.serve(frag, sres, input, start)
		rescoreFidelity(out, opts)
		return out, true, nil
	}
	s.misses.Add(1)
	return nil, false, nil
}

// gatePrefix reports whether t's gate list is an exact gate-for-gate prefix
// of c's.
func gatePrefix(c, t *circuit.Circuit) bool {
	for i, g := range t.Gates {
		if !c.Gates[i].Equal(g) {
			return false
		}
	}
	return true
}

// serve assembles the outgoing Result. With no suffix it is the fragment
// itself (shared, read-only) re-labeled with the request's input; with a
// suffix the two physical circuits concatenate, the fragment's initial
// placement opens and the suffix's final placement closes, and calibrated
// fidelity is re-evaluated over the stitched whole (success estimates do
// not compose by concatenation of parts that were scored separately).
func (s *Store) serve(frag, suffix *compiler.Result, input *circuit.Circuit, start time.Time) *compiler.Result {
	out := &compiler.Result{
		Input:            input,
		Physical:         frag.Physical,
		Initial:          frag.Initial,
		Final:            frag.Final,
		SwapsAdded:       frag.SwapsAdded,
		Graph:            frag.Graph,
		CostModel:        frag.CostModel,
		EstimatedSuccess: frag.EstimatedSuccess,
		Makespan:         frag.Makespan,
	}
	// The fragment's passes ran when the fragment was warmed, not for this
	// request; mark them like batch-cache front metrics so latency
	// aggregations count them zero times.
	for _, m := range frag.Passes {
		m.Cached = true
		out.Passes = append(out.Passes, m)
	}
	if suffix != nil {
		stitchedPhys := circuit.New(frag.Physical.NumQubits)
		for _, g := range frag.Physical.Gates {
			stitchedPhys.Append(g)
		}
		for _, g := range suffix.Physical.Gates {
			stitchedPhys.Append(g)
		}
		out.Physical = stitchedPhys
		out.Final = suffix.Final
		out.SwapsAdded += suffix.SwapsAdded
		out.Passes = append(out.Passes, suffix.Passes...)
	}
	stats := out.Physical.CollectStats()
	inStats := input.CollectStats()
	out.Passes = append(out.Passes, compiler.PassMetric{
		Pass:           "template:stitch",
		Duration:       time.Since(start),
		GatesBefore:    inStats.Total,
		GatesAfter:     stats.Total,
		TwoQubitBefore: inStats.TwoQubit,
		TwoQubitAfter:  stats.TwoQubit,
	})
	return out
}

// RescoreFidelity recomputes the calibrated success estimate and makespan of
// a stitched result in place. Exact hits carry the fragment's numbers (the
// circuits are identical); stitched results need the combined circuit
// rescored, which Stitch does via this helper when a calibration is in play.
func rescoreFidelity(out *compiler.Result, opts compiler.Options) {
	if opts.Calibration == nil {
		return
	}
	p, d, err := noise.SuccessWithCalibration(out.Physical, opts.Calibration, noise.CoherencePerQubit)
	if err != nil {
		return
	}
	out.EstimatedSuccess, out.Makespan = p, d
}
