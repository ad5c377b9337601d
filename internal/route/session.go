package route

import (
	"fmt"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// Session is an incremental routing run for windowed compilation: Begin once
// with the device and initial placement, Feed gate windows in circuit order,
// Drain the routed output after each window, and Finish for the final
// placement. A session holds the same state a monolithic Route call owns —
// live layout, tie-break RNG, scratch buffers — so feeding a circuit's gates
// through a session in one or many windows produces output byte-identical to
// Route on the whole circuit (the RNG consumes the same stream either way).
// Draining between windows is what keeps memory bounded: the session then
// retains only the layout and device-sized scratch, not the routed gates.
type Session struct {
	s    *state
	wide wideGates
	gate int
	err  error
}

// Begin starts an incremental baseline-routing session.
func (b *Baseline) Begin(g *topo.Graph, initial *layout.Layout) (*Session, error) {
	s, err := newState(g, initial, b.Seed, b.Weight, b.Oracle)
	if err != nil {
		return nil, err
	}
	return &Session{s: s, wide: pairGates}, nil
}

// Begin starts an incremental Trios-routing session.
func (t *Trios) Begin(g *topo.Graph, initial *layout.Layout) (*Session, error) {
	s, err := newState(g, initial, t.Seed, t.Weight, t.Oracle)
	if err != nil {
		return nil, err
	}
	return &Session{s: s, wide: trioGates}, nil
}

// routeWhole routes c as the one window of a session r begins: Baseline
// and Trios route through the incremental path only, so windowed and
// monolithic routing cannot drift apart.
func routeWhole(r interface {
	Begin(*topo.Graph, *layout.Layout) (*Session, error)
}, c *circuit.Circuit, g *topo.Graph, initial *layout.Layout) (*Result, error) {
	ss, err := r.Begin(g, initial)
	if err != nil {
		return nil, err
	}
	if err := ss.Feed(c.Gates); err != nil {
		return nil, err
	}
	return ss.Finish(), nil
}

// Feed routes the next window of gates. Gate indices in error messages are
// absolute (counted from the first Feed), matching Route's numbering. After
// an error the session is dead and every later call returns the same error.
func (ss *Session) Feed(gates []circuit.Gate) error {
	if ss.err != nil {
		return ss.err
	}
	for _, g := range gates {
		if err := ss.s.step(g, ss.gate, ss.wide); err != nil {
			ss.err = err
			return err
		}
		ss.gate++
	}
	return nil
}

// Drain appends the routed gates produced since the last Drain to dst and
// releases them from the session, bounding its memory to the window size.
func (ss *Session) Drain(dst []circuit.Gate) []circuit.Gate {
	dst = append(dst, ss.s.out.Gates...)
	ss.s.out.Gates = ss.s.out.Gates[:0]
	return dst
}

// Layout returns the live placement after everything fed so far — the
// window-boundary handoff. The caller must not mutate it; copy to keep a
// snapshot.
func (ss *Session) Layout() *layout.Layout { return ss.s.l }

// Swaps reports the SWAPs inserted so far.
func (ss *Session) Swaps() int { return ss.s.swaps }

// Finish finalizes the run. Result.Circuit holds only the undrained gates
// (the whole routed circuit when Drain was never called, as in Route).
func (ss *Session) Finish() *Result { return ss.s.result() }

// wideGates names the gates of three or more qubits a session routes.
type wideGates int

const (
	pairGates wideGates = iota // none (Baseline)
	trioGates                  // CCX, RCCX and RCCXdg as trios (Trios)
)

// refuse is the error for a gate w does not route, in its router's words.
func (w wideGates) refuse(gate circuit.Gate, i int) error {
	if w == pairGates {
		return fmt.Errorf("route: baseline router cannot handle %d-qubit gate %v (gate %d); decompose first", len(gate.Qubits), gate.Name, i)
	}
	return fmt.Errorf("route: trios router cannot handle gate %v (gate %d); first-pass decomposition should leave only 1q, 2q and ccx gates", gate.Name, i)
}

// step routes one gate in program order and emits it: a pair moves until
// adjacent, and the wide gates w accepts route as trios. i is the absolute
// gate index, used only in error messages.
func (s *state) step(gate circuit.Gate, i int, w wideGates) error {
	var err error
	switch q := gate.Qubits; {
	case gate.Name == circuit.Barrier || len(q) == 1:
	case len(q) == 2:
		err = s.routePair(q[0], q[1])
	case w != pairGates && trioGate(gate.Name):
		err = s.routeTrio(gate)
	default:
		return w.refuse(gate, i)
	}
	if err != nil {
		return fmt.Errorf("route: gate %d: %w", i, err)
	}
	s.emitMapped(gate)
	return nil
}
