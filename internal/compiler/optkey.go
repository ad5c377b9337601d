// Cache-key-stable option fingerprints: the serving layer content-addresses
// compiled artifacts by (canonical QASM, device, option set), so every option
// that can change the compiled output must serialize into a canonical string.
package compiler

import (
	"fmt"
	"strings"

	"trios/internal/decompose"
	"trios/internal/device"
)

// The Parse* helpers are the single string→enum mapping shared by every
// user-facing surface (the trios CLI flags and the triosd wire protocol), so
// a daemon request stays a transliteration of a command line: the two can
// never accept different vocabularies.

// ParsePipeline resolves a pipeline name: trios or baseline.
func ParsePipeline(s string) (Pipeline, error) {
	switch s {
	case "trios":
		return TriosPipeline, nil
	case "baseline":
		return Conventional, nil
	}
	return 0, fmt.Errorf("compiler: unknown pipeline %q (want trios or baseline)", s)
}

// ParseRouter resolves a routing strategy: direct, stochastic, or lookahead.
func ParseRouter(s string) (RouterKind, error) {
	switch s {
	case "direct":
		return RouteDirect, nil
	case "stochastic":
		return RouteStochastic, nil
	case "lookahead":
		return RouteLookahead, nil
	}
	return 0, fmt.Errorf("compiler: unknown router %q (want direct, stochastic, or lookahead)", s)
}

// ParsePlacement resolves an initial-mapping strategy: greedy, identity, or
// random.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "greedy":
		return PlaceGreedy, nil
	case "identity":
		return PlaceIdentity, nil
	case "random":
		return PlaceRandom, nil
	}
	return 0, fmt.Errorf("compiler: unknown placement %q (want greedy, identity, or random)", s)
}

// ParseCost resolves the cost-model vocabulary shared by the trios -cost
// flag and the triosd wire protocol: "" and "noise" select the calibration's
// noise model (returned as nil — Options derives it from Calibration),
// "uniform" the noise-blind control arm.
func ParseCost(s string) (device.CostModel, error) {
	switch s {
	case "", "noise":
		return nil, nil
	case "uniform":
		return device.Uniform{}, nil
	}
	return nil, fmt.Errorf("compiler: unknown cost model %q (want noise or uniform)", s)
}

// ResolveCalibration maps the shared calibration/cost request vocabulary to
// compiler options: name resolves against the device registry, cost through
// ParseCost. An empty name means no calibration, in which case a cost
// selection is rejected (there is nothing for it to act on).
func ResolveCalibration(name, cost string) (*device.Calibration, device.CostModel, error) {
	if name == "" {
		if cost != "" {
			return nil, nil, fmt.Errorf("compiler: cost model %q requires a calibration", cost)
		}
		return nil, nil, nil
	}
	cal, err := device.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	cm, err := ParseCost(cost)
	if err != nil {
		return nil, nil, err
	}
	return cal, cm, nil
}

// ParseToffoli resolves a Toffoli decomposition mode: auto, 6, or 8.
func ParseToffoli(s string) (decompose.ToffoliMode, error) {
	switch s {
	case "auto":
		return decompose.Auto, nil
	case "6":
		return decompose.Six, nil
	case "8":
		return decompose.Eight, nil
	}
	return 0, fmt.Errorf("compiler: unknown toffoli mode %q (want auto, 6, or 8)", s)
}

func (p Placement) String() string {
	switch p {
	case PlaceGreedy:
		return "greedy"
	case PlaceRandom:
		return "random"
	}
	return "identity"
}

// CacheKey returns a canonical fingerprint of every option that can affect
// the compiled circuit. Two Options values with equal CacheKeys compile any
// given input to bit-identical results (compilation is deterministic in the
// seed), which is what lets a compile cache serve one job's artifact for
// another. It deliberately over-segments — a seed is included even for
// configurations that never consume it — because a key that is too fine
// only costs hit rate, while one too coarse serves wrong answers.
//
// The cost segment carries the resolved cost model's canonical identity (the
// calibration's content digest for Noise), and the cal segment the digest of
// the calibration feeding the fidelity stats — so artifacts compiled or
// evaluated under different calibrations can never alias, while a Uniform
// compile with and without a calibration (identical QASM, different stats
// block) also key apart.
func (o Options) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline=%s;router=%s;toffoli=%s;placement=%s;seed=%d;optimize=%t;layout=",
		o.Pipeline, o.Router, o.Mode, o.Placement, o.Seed, o.Optimize)
	if o.InitialLayout == nil {
		b.WriteString("none")
	} else {
		for i, p := range o.InitialLayout {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", p)
		}
	}
	fmt.Fprintf(&b, ";cost=%s;cal=", o.costModel().CacheKey())
	if o.Calibration == nil {
		b.WriteString("none")
	} else {
		b.WriteString(o.Calibration.Digest())
	}
	return b.String()
}
