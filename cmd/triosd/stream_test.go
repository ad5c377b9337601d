package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"trios/internal/benchmarks"
)

// TestDaemonStreamEndpoint drives POST /v1/compile/stream through the real
// daemon: a generated 20k-gate Clifford+T stream goes up as a raw body and
// the compiled program comes back chunked, with a stats trailer and the
// cache bypassed. The trailer reports the default window when the request
// names none, and the request's own otherwise.
func TestDaemonStreamEndpoint(t *testing.T) {
	base, shutdown := startDaemon(t)
	defer shutdown()

	const gates = 20_000
	for _, tc := range []struct{ query, window string }{
		{"", `"window":4096`},
		{"&window=2048", `"window":2048`},
	} {
		query, window := tc.query, tc.window
		resp, err := http.Post(base+"/v1/compile/stream?pipeline=trios&seed=2"+query,
			"text/plain", benchmarks.StreamCliffordT(16, gates, 7))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %.300s", query, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Trios-Cache"); got != "bypass" {
			t.Fatalf("%q: X-Trios-Cache = %q, want bypass", query, got)
		}
		s := string(body)
		tail := s[max(0, len(s)-300):]
		if !strings.Contains(s, `"input_gates":20000`) {
			t.Fatalf("%q: stats trailer missing or wrong; body tail: %.300s", query, tail)
		}
		if !strings.Contains(s, window) {
			t.Fatalf("%q: trailer lacks %s; body tail: %.300s", query, window, tail)
		}
		if strings.Contains(s, "// trios-stream-error:") {
			t.Fatalf("%q: in-band stream error; body tail: %.300s", query, tail)
		}
	}
}
