package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsBadFlags: unknown flags are usage errors, marked so main
// exits 2 without printing them twice.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-no-such-flag"}, &out, nil)
	if !errors.Is(err, errFlagParse) {
		t.Fatalf("err = %v, want errFlagParse", err)
	}
	if err := run(context.Background(), []string{"-h"}, &out, nil); err != nil {
		t.Fatalf("-h should be success, got %v", err)
	}
}

// TestRunVersion prints the build identity and exits cleanly.
func TestRunVersion(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("-version printed nothing")
	}
}

// TestRunBadAddr: an unbindable address must surface as an error, not hang.
func TestRunBadAddr(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "256.0.0.1:http"}, io.Discard, nil)
	if err == nil || errors.Is(err, errFlagParse) {
		t.Fatalf("err = %v, want a listen error", err)
	}
}

// TestRunListenFailureReleasesEverything: when the serving listener, or the
// debug listener after it, cannot bind, run returns the error and leaves
// nothing behind: the serving port can be bound again and the service's
// goroutines (pool workers, closer, dispatcher) end.
func TestRunListenFailureReleasesEverything(t *testing.T) {
	for _, debug := range []bool{false, true} {
		busy, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		main := busy.Addr().String()
		args := []string{"-addr", main, "-workers", "2", "-grace", "5s"}
		if debug {
			main = freeAddr(t)
			args = []string{"-addr", main, "-debug-addr", busy.Addr().String(), "-workers", "2", "-grace", "5s"}
		}
		base := runtime.NumGoroutine()
		err = run(context.Background(), args, io.Discard, nil)
		busy.Close()
		if err == nil || errors.Is(err, errFlagParse) {
			t.Fatalf("debug=%v: err = %v, want a listen error", debug, err)
		}
		ln, err := net.Listen("tcp", main)
		if err != nil {
			t.Fatalf("debug=%v: serving address still held after run returned: %v", debug, err)
		}
		ln.Close()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				var dump strings.Builder
				_ = pprof.Lookup("goroutine").WriteTo(&dump, 1)
				t.Fatalf("debug=%v: %d goroutines after run returned, %d before:\n%s",
					debug, runtime.NumGoroutine(), base, dump.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// startDaemon boots the daemon with the given extra flags on an ephemeral
// port and returns its base URL plus a shutdown func that cancels and waits
// for the graceful drain.
func startDaemon(t *testing.T, extra ...string) (base string, shutdown func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-grace", "10s"}, extra...)
	go func() {
		done <- run(ctx, args, io.Discard, func(a net.Addr) { addrCh <- a })
	}()
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return base, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("graceful drain returned %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("daemon did not drain after cancel")
		}
	}
}

// postCompile sends one compile request and returns the response body and
// the X-Trios-Cache outcome header.
func postCompile(t *testing.T, base, reqBody string) (body []byte, outcome string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/compile status %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Trios-Cache")
}

// TestRestartWarmFromStoreDir is the restart-warm acceptance test: a daemon
// restarted against a populated -store-dir serves a repeated mix with >= 90%
// cache hit rate and bodies byte-identical to the cold compiles.
func TestRestartWarmFromStoreDir(t *testing.T) {
	storeDir := t.TempDir()
	mix := []string{
		`{"benchmark":"cnx_dirty-11","pipeline":"trios"}`,
		`{"benchmark":"grovers-9","pipeline":"baseline"}`,
		`{"benchmark":"bv-20","topology":"line","pipeline":"trios"}`,
		`{"benchmark":"qaoa_complete-10","pipeline":"trios","seed":4}`,
	}

	base, shutdown := startDaemon(t, "-store-dir", storeDir)
	coldBodies := make([][]byte, len(mix))
	for i, req := range mix {
		body, outcome := postCompile(t, base, req)
		if outcome != "miss" {
			t.Fatalf("cold request %d outcome %q, want miss", i, outcome)
		}
		coldBodies[i] = body
	}
	shutdown() // graceful drain flushes the write-behind queue and the index

	// Restart against the same store directory and replay the mix repeatedly.
	base, shutdown = startDaemon(t, "-store-dir", storeDir)
	defer shutdown()
	const rounds = 5
	hits, total := 0, 0
	for r := 0; r < rounds; r++ {
		for i, req := range mix {
			body, outcome := postCompile(t, base, req)
			total++
			switch outcome {
			case "hit-disk":
				if r != 0 {
					t.Fatalf("round %d request %d still reading disk; promotion failed", r, i)
				}
				hits++
			case "hit":
				hits++
			default:
				t.Logf("round %d request %d outcome %q", r, i, outcome)
			}
			if !bytes.Equal(body, coldBodies[i]) {
				t.Fatalf("restart-warm body for request %d differs from its cold compile", i)
			}
		}
	}
	if rate := float64(hits) / float64(total); rate < 0.9 {
		t.Fatalf("restart-warm hit rate %.2f, want >= 0.90", rate)
	}

	// The restarted daemon's health reports the store tier.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var health struct {
		Store *struct {
			Entries int    `json:"entries"`
			Hits    uint64 `json:"hits"`
		} `json:"store"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Store == nil || health.Store.Entries < len(mix) || health.Store.Hits == 0 {
		t.Fatalf("healthz store block looks wrong: %s", raw)
	}
}

// TestDaemonSmoke boots the daemon on an ephemeral port, round-trips
// /healthz, /v1/devices, /v1/calibrations, and one compile, then cancels the
// context and expects a clean graceful drain.
func TestDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-grace", "5s"}, io.Discard,
			func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", resp.StatusCode, body)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("/healthz status field %q", health.Status)
	}

	if resp, body = get("/v1/devices"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "johannesburg") {
		t.Fatalf("/v1/devices status %d: %s", resp.StatusCode, body)
	}
	if resp, body = get("/v1/calibrations"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "johannesburg-0819") {
		t.Fatalf("/v1/calibrations status %d: %s", resp.StatusCode, body)
	}

	compileBody := strings.NewReader(`{"benchmark":"cnx_inplace-4","pipeline":"trios","calibration":"johannesburg-0819"}`)
	cresp, err := http.Post(base+"/v1/compile", "application/json", compileBody)
	if err != nil {
		t.Fatal(err)
	}
	cbody, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/compile status %d: %s", cresp.StatusCode, cbody)
	}
	var art struct {
		QASM             string  `json:"qasm"`
		Calibration      string  `json:"calibration"`
		EstimatedSuccess float64 `json:"estimated_success"`
	}
	if err := json.Unmarshal(cbody, &art); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(art.QASM, "OPENQASM 2.0;") || art.Calibration != "johannesburg-0819" || art.EstimatedSuccess <= 0 {
		t.Fatalf("compile response looks wrong: %s", cbody)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}

	// The listener is gone after drain.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after drain")
	}
}
