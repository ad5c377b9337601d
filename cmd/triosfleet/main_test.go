package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trios/internal/service"
)

// startBackends spins n in-process triosd-equivalent backends (the daemon's
// own service handler over httptest) and returns their base URLs. Cleanup
// shuts each server down, then closes its service, so no compile worker
// outlives the test.
func startBackends(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Workers: 2, QueueDepth: 16, CacheEntries: 64})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := svc.Close(ctx); err != nil {
				t.Errorf("backend %d: close: %v", i, err)
			}
		})
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func TestParseReplicas(t *testing.T) {
	reps, err := parseReplicas("http://127.0.0.1:8431, http://127.0.0.1:8432/")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Name != "127.0.0.1:8431" || reps[1].URL != "http://127.0.0.1:8432" {
		t.Fatalf("parseReplicas = %+v", reps)
	}
	for _, bad := range []string{"", "not-a-url", "127.0.0.1:8431"} {
		if _, err := parseReplicas(bad); err == nil {
			t.Fatalf("parseReplicas(%q) accepted", bad)
		}
	}
}

func TestRunFlagHandling(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, nil); !errors.Is(err, errFlagParse) {
		t.Fatalf("unknown flag: err = %v, want errFlagParse", err)
	}
	if err := run(context.Background(), []string{}, &out, nil); !errors.Is(err, errFlagParse) {
		t.Fatalf("missing -replicas: err = %v, want errFlagParse", err)
	}
	if err := run(context.Background(), []string{"-version"}, &out, nil); err != nil || out.Len() == 0 {
		t.Fatalf("-version: err=%v output=%q", err, out.String())
	}
}

// TestFleetSmoke boots two real triosd services behind the fleet binary's run
// loop and round-trips a compile plus the fleet health view, then drains.
func TestFleetSmoke(t *testing.T) {
	// Two in-process backends using the daemon's own service handler.
	backends := startBackends(t, 2)

	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-replicas", strings.Join(backends, ","),
			"-health-interval", "100ms",
			"-grace", "5s",
		}, io.Discard, func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		cancel()
		t.Fatalf("fleet exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("fleet never became ready")
	}

	resp, err := http.Post(base+"/v1/compile", "application/json",
		strings.NewReader(`{"benchmark":"cnx_inplace-4","pipeline":"trios"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet compile status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Trios-Replica") == "" || resp.Header.Get("X-Trios-Cache") != "miss" {
		t.Fatalf("fleet compile headers: replica=%q cache=%q",
			resp.Header.Get("X-Trios-Replica"), resp.Header.Get("X-Trios-Cache"))
	}
	var art struct {
		QASM string `json:"qasm"`
	}
	if err := json.Unmarshal(body, &art); err != nil || !strings.HasPrefix(art.QASM, "OPENQASM 2.0;") {
		t.Fatalf("fleet compile body looks wrong: %s", body)
	}

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Replicas []struct {
			Status string `json:"status"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(hraw, &health); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK || len(health.Replicas) != 2 {
		t.Fatalf("fleet healthz %d: %s", hresp.StatusCode, hraw)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("fleet did not drain after cancel")
	}
}
