package route

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trios/internal/circuit"
	"trios/internal/layout"
	"trios/internal/topo"
)

// randMixedCircuit builds a random circuit of 1q/2q gates with an optional
// CCX fraction, the workload TestSearchRoutersPinned routes.
func randMixedCircuit(rng *rand.Rand, n, gates int, withCCX bool) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		r := rng.Intn(10)
		switch {
		case r < 2:
			c.H(rng.Intn(n))
		case r < 3:
			c.T(rng.Intn(n))
		case withCCX && r < 5:
			a, b, d := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if a != b && b != d && a != d {
				c.CCX(a, b, d)
			} else {
				c.H(a)
			}
		default:
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		}
	}
	return c
}

// equivNoiseWeight is an irregular edge-weight landscape that makes the
// search routers' weighted scoring pick different swaps than hop counts do.
func equivNoiseWeight(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return -math.Log(0.99 - 0.002*float64((a*31+b*17)%9))
}

// routedDigest reduces a routed result to the SHA-256 of its gate stream
// (names, operands and parameter bits), swap count and final layout.
func routedDigest(res *Result) string {
	h := sha256.New()
	for _, g := range res.Circuit.Gates {
		fmt.Fprintf(h, "%v %v", g.Name, g.Qubits)
		for _, p := range g.Params {
			fmt.Fprintf(h, " %x", math.Float64bits(p))
		}
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "swaps %d\nfinal %v\n", res.SwapsAdded, res.Final.VirtualToPhys())
	return hex.EncodeToString(h.Sum(nil))
}

// searchRouterPins holds routedDigest of every TestSearchRoutersPinned case.
// The table was generated while the routers still carried a second, branchy
// scoring loop, after checking that both loops routed each case to the same
// gate stream, swap count and final layout; it now stands in for that loop.
var searchRouterPins = []struct {
	device, router, weight string
	seed                   int64
	digest                 string
}{
	{"ibmq-johannesburg", "stochastic", "hops", 1, "5863f50fb5f7183574d2d0db4cf5f834f777ab2ecc0416fbe37168c73cb8cf42"},
	{"ibmq-johannesburg", "lookahead", "hops", 1, "bd026821299f32cb704b5271451f630fa8b9aa9dc63fe0a524fb7d7bf07f05d9"},
	{"ibmq-johannesburg", "stochastic", "hops", 2, "9927ef80f6d8902357f8d4ee2c1af2b36f520a57a9af7b37809ad863abd5de45"},
	{"ibmq-johannesburg", "lookahead", "hops", 2, "3328358ddbe55341070efb3e344c893aeb7ae9ff2567c03b003511513cef97cb"},
	{"ibmq-johannesburg", "stochastic", "hops", 3, "3b314425206d9b7cdd04bfd1e0b23a0cc051059a1a8641cb72dfd018ee8fa09a"},
	{"ibmq-johannesburg", "lookahead", "hops", 3, "bd5574b2ecea9a6c177b98443eced3f71f98fe479eaf2fe9e80c003c9f823760"},
	{"ibmq-johannesburg", "stochastic", "hops", 4, "de5b63922fdec63f67816ac9edb2f01602392e494ac727279d1e3dcf6a9d9075"},
	{"ibmq-johannesburg", "lookahead", "hops", 4, "f21d0cfc6beee7dc276f95bb54b1942d87c0e4c0f7dddeff1774ad295acd13be"},
	{"ibmq-johannesburg", "stochastic", "noise", 1, "2f1fa3e706b8d31108871358ae4f526a5b37c871e637e54bad01e7095e57bc0f"},
	{"ibmq-johannesburg", "lookahead", "noise", 1, "ebf866fdaff2ffbe1725383393f2b170136a31a191c79eeb1bb68f58fa348f85"},
	{"ibmq-johannesburg", "stochastic", "noise", 2, "a6f3220855e61d14b271b30100532ff7bc9dd6794d4c3026d3c9194ceb2801bc"},
	{"ibmq-johannesburg", "lookahead", "noise", 2, "60122212584851e3c82251392482922a562d1620fddfba8b32635e39427d7125"},
	{"ibmq-johannesburg", "stochastic", "noise", 3, "4382de922bcc7d1249fa0d0bf0ef4a42a6561f9aa89c9dd0b90adc96b2fde7d5"},
	{"ibmq-johannesburg", "lookahead", "noise", 3, "1cf6122ef2052723f045dea23efd519c2a161191422617c4ddf346db6a0e8410"},
	{"ibmq-johannesburg", "stochastic", "noise", 4, "59003fe80264e5c0441bba3d6004da4deb69035187448dc052abf90316f53294"},
	{"ibmq-johannesburg", "lookahead", "noise", 4, "c7d91f34c27c5ac15c262403f00e06f94ca7e579b8fd5725a6597362e6a02f48"},
	{"full-grid-5x4", "stochastic", "hops", 1, "a1208034268e16c9e7f19b7cb527abc6bff4920bee9c272951b15638ff028a32"},
	{"full-grid-5x4", "lookahead", "hops", 1, "69155b0486cacec89a222634fbe36ffa49545afb4b3daa5c3e707a6b95325d7c"},
	{"full-grid-5x4", "stochastic", "hops", 2, "b01efbce18ec2eefab94c3f1f90f3b3ed6cb5c2832a0b5eb6dcbb55beaa3c790"},
	{"full-grid-5x4", "lookahead", "hops", 2, "2d88de38e7100bd1f5156f8c8072ccf7be1999810b07b1311327267379eed2dc"},
	{"full-grid-5x4", "stochastic", "hops", 3, "cc13c5315b2b779688288d044d525ee72ebc1d83bf7eecde337bf03079e9bb0e"},
	{"full-grid-5x4", "lookahead", "hops", 3, "653b6ea14932dc86c0c0c67dbbc3e9478ac27ab3e66a27e9741ab62ac4cbc935"},
	{"full-grid-5x4", "stochastic", "hops", 4, "b51ec768febc9f216fc475f892c68c93aed8cd0187ae057d247ef9d05e2bd2f9"},
	{"full-grid-5x4", "lookahead", "hops", 4, "423cc492d817ec52b36516e2856fdcfcdbc74da17e341f9e30c431a490beddb3"},
	{"full-grid-5x4", "stochastic", "noise", 1, "8317bc469464ee16a1d1664233bf89218f94d1b152e1b9196f2eebc3e8458978"},
	{"full-grid-5x4", "lookahead", "noise", 1, "c54325a1eaa98b0cbef2dcfdada9e21bfe0db005ba4b34446a0c30ff0ab44df2"},
	{"full-grid-5x4", "stochastic", "noise", 2, "d0f9d2898c7539f6787e578e7d47b136ac32c150c56bc549daafa7ed043d008e"},
	{"full-grid-5x4", "lookahead", "noise", 2, "0e1bf80ef8ee6c2a16d4bc77366c4b79bf27bfff530ff59455e2aaccd090319e"},
	{"full-grid-5x4", "stochastic", "noise", 3, "181a232f0fcb64d073134f574f45d9b50396731b09e3c380d6c674ffe68f926d"},
	{"full-grid-5x4", "lookahead", "noise", 3, "5eac95761a7efd7d7526d3d7b9bdb8a78232ec863608193e6bcf1775f42b361a"},
	{"full-grid-5x4", "stochastic", "noise", 4, "206688cb1f3c5425c3ba452a2f94d058f45b694a6ccbc1e77ad78f2f8d7430de"},
	{"full-grid-5x4", "lookahead", "noise", 4, "03c644d85b1a42e73011d8a6b77259cd28a964dfedb55a42ad59fa977d4e6bc2"},
	{"line-20", "stochastic", "hops", 1, "a5ed4d645cf3f87a4ae15ca09e2a410e5e0a18a1475fb8c29b060e8a66ebc667"},
	{"line-20", "lookahead", "hops", 1, "06c61ecfa645c492dd2f94facd04feecc419d094cce617044f3836d393b2149a"},
	{"line-20", "stochastic", "hops", 2, "770d268fa99a547f199ed149c9b2c3316dd7aac7b261bf9f1b6b6419c7c94f9a"},
	{"line-20", "lookahead", "hops", 2, "ffc4b12d55922e18e5d94c66d5e529c13f47ebcbca5d79c2168f40ae96fb3d27"},
	{"line-20", "stochastic", "hops", 3, "f2c5e9a429fd12e6382e5ae3d2a9245b73a1332d6d11aa2bd56c54bac4cd33f3"},
	{"line-20", "lookahead", "hops", 3, "6cdaebe72ebea32e2159e7055bea080dcbc2dfdca52a5de8f59d04049a0fa02d"},
	{"line-20", "stochastic", "hops", 4, "1366d8e39d892bb53722f02ae12d828dc5a2caf21e89a53d4ab32b9a3afa99e1"},
	{"line-20", "lookahead", "hops", 4, "8cc12d468762f636a86c0b1f92cb46bccb9c9a66dd9466f1e9b9bf26ba819df3"},
	{"line-20", "stochastic", "noise", 1, "5f107fd5d3f8649107948b0e9e2b611703c44cc3f3c5251271e977fea62f269d"},
	{"line-20", "lookahead", "noise", 1, "94658a97873826aac3c333b688e054a2267dae9caf529c1b604dc12910b410a1"},
	{"line-20", "stochastic", "noise", 2, "4e6c166ec1e41101e88831212214ea7704954cb8e2cfaa4c2a9c12ddabf52ea0"},
	{"line-20", "lookahead", "noise", 2, "87ca5ddbfe6a01e3e0edd973676f44c039152626987b5572d42aaa19436d7849"},
	{"line-20", "stochastic", "noise", 3, "15a066f95880b444cc13ae009709b4363342534485f2827ed33bf08321a6fa7c"},
	{"line-20", "lookahead", "noise", 3, "f4bce7bdd15b988f23e7add9ed7929a8bd531b355498e57374d6dee4b8faa03c"},
	{"line-20", "stochastic", "noise", 4, "081e48e7e41a191ccda29e9c676f6fba9a9ef4061bef9fea61f8d649c55ab4a7"},
	{"line-20", "lookahead", "noise", 4, "b88b2a86190bc102ade6ccabfe1d9804d4c38b1ae1bbb2447d23a998a712b874"},
	{"clusters-5x4", "stochastic", "hops", 1, "f0115441f00ac4835a92472330d15ea312009d5d090704b9eb41ba66c06d91b3"},
	{"clusters-5x4", "lookahead", "hops", 1, "8fe8a28007d8e173082968e32ec7abf6898eee823d904e2a518ebf93d39deb1a"},
	{"clusters-5x4", "stochastic", "hops", 2, "4088952f7daf9a4a0108eeecab1765df445ebea6f861dd7e75d221fb4c4ba583"},
	{"clusters-5x4", "lookahead", "hops", 2, "cb1b755f1c8664bcb28fed5aad751466c0855ba471fe615e995a8dd20f5d0d87"},
	{"clusters-5x4", "stochastic", "hops", 3, "d04dc8fc0f4deb7d6bc28649c71d0b2c87c4a3a9e4b1bcb64f87d1277a275024"},
	{"clusters-5x4", "lookahead", "hops", 3, "05e1656ffba1138a4d273d4b2e923c2ecb104a5ff3c7cea2b38f36af71d36857"},
	{"clusters-5x4", "stochastic", "hops", 4, "82e9319a79d56696d709b1196ec07a45d5dd90b37cc8024579157bd356d6afad"},
	{"clusters-5x4", "lookahead", "hops", 4, "ed4d2230d6cd137888ee78df6d098f6721f3d09662f19c7793e1928cbc278ed8"},
	{"clusters-5x4", "stochastic", "noise", 1, "fea9918ec53cfddd48dceefa9238061223ec294ab24eaf7dfe11667c52f43986"},
	{"clusters-5x4", "lookahead", "noise", 1, "2bfc6b9a5a8ef47b8fb66ebeb978a7166203e23fe6dc27459dc5e50c2216295f"},
	{"clusters-5x4", "stochastic", "noise", 2, "aeb8c57e6071870bbd4e2c753cae77f5300813572edb392ffff1222dc8499847"},
	{"clusters-5x4", "lookahead", "noise", 2, "0fcd2b7cf49f36548092a3630daa15b8e133914285d12087225ea1ce4662e3c7"},
	{"clusters-5x4", "stochastic", "noise", 3, "3a9aaee51061d1a191758d24c9176b975463355292c4b3dc9a8f42dcf1880ec6"},
	{"clusters-5x4", "lookahead", "noise", 3, "89a143af698b9ecdf289d80b59883d71f8db056a54a7a70c230496aef4409c03"},
	{"clusters-5x4", "stochastic", "noise", 4, "ad45ea07d3627a12405dffd38be18a9c1ac621a3faadeada42fb32732d6ebf5c"},
	{"clusters-5x4", "lookahead", "noise", 4, "bcc87e2f2367e0c678f5b857f7f72a96d284f2be491bab7b598c90f451f5c02e"},
}

// TestSearchRoutersPinned pins the stochastic and lookahead routers' output
// on every paper device, for seeded random circuits with intact CCX gates,
// under hop costs and a weighted landscape: 64 routed results, each reduced
// to its gate stream, swap count and final layout. It pins the RNG streams,
// the improving-set contents and every float comparison of the branchless
// scoring sweeps.
func TestSearchRoutersPinned(t *testing.T) {
	devices := map[string]*topo.Graph{}
	for _, g := range []*topo.Graph{topo.Johannesburg(), topo.Grid5x4(), topo.Line20(), topo.Clusters5x4()} {
		devices[g.Name()] = g
	}
	weights := map[string]func(a, b int) float64{"hops": nil, "noise": equivNoiseWeight}
	for _, pin := range searchRouterPins {
		g := devices[pin.device]
		n := g.NumQubits()
		rng := rand.New(rand.NewSource(pin.seed * 977))
		c := randMixedCircuit(rng, n, 120, true)
		var r Router = &Stochastic{Seed: pin.seed, TrioAware: true, Weight: weights[pin.weight]}
		if pin.router == "lookahead" {
			r = &Lookahead{Seed: pin.seed, TrioAware: true, Weight: weights[pin.weight]}
		}
		res, err := r.Route(c, g, layout.Identity(n))
		if err != nil {
			t.Fatalf("%s/%s/%s/%d: %v", pin.device, pin.router, pin.weight, pin.seed, err)
		}
		if got := routedDigest(res); got != pin.digest {
			t.Errorf("%s/%s/%s/%d: routed output changed; now %s", pin.device, pin.router, pin.weight, pin.seed, got)
		}
	}
	if len(searchRouterPins) != 64 {
		t.Errorf("table pins %d cases, want 64", len(searchRouterPins))
	}
}
