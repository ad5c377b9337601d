package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// daemon is one triosd process started by the benchmark, with tracing off
// and GOMAXPROCS pinned to the host's CPU count.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	logs   chan struct{} // closed when the stderr reader has drained
	tail   *bytes.Buffer // last stderr lines, for error reports

	gomaxprocs int
	goVersion  string
}

var listenRE = regexp.MustCompile(`triosd listening on ([^ ]+) `)

// startDaemon launches triosd on a free loopback port and waits until it
// accepts connections and answers /healthz.
func startDaemon(bin string, procs, conns int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-trace=false", "-log-level", "info")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The daemon must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start triosd: %w", err)
	}
	d := &daemon{cmd: cmd, logs: make(chan struct{}), tail: new(bytes.Buffer)}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logs)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				if m := listenRE.FindStringSubmatch(line); m != nil {
					addr <- m[1]
					sent = true
					continue
				}
			}
			if d.tail.Len() < 1<<14 {
				d.tail.WriteString(line + "\n")
			}
		}
		if !sent {
			close(addr)
		}
	}()
	var a string
	select {
	case got, ok := <-addr:
		if !ok {
			<-d.logs
			_ = cmd.Wait()
			return nil, fmt.Errorf("triosd exited before listening: %s", d.tail.String())
		}
		a = got
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("triosd did not start listening within 30s")
	}
	d.base = "http://" + a
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := d.health()
		if err == nil {
			d.gomaxprocs = h.GOMAXPROCS
			d.goVersion = h.Build.GoVersion
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("triosd /healthz not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

type healthz struct {
	Status     string `json:"status"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Build      struct {
		GoVersion string `json:"go_version"`
	} `json:"build"`
}

func (d *daemon) health() (healthz, error) {
	var h healthz
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// post sends one request and reads the whole response body into buf,
// returning the status, the X-Trios-Cache header and the body.
func (d *daemon) post(path, contentType string, body io.Reader, buf *bytes.Buffer) (int, string, []byte, error) {
	resp, err := d.client.Post(d.base+path, contentType, body)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Trios-Cache"), buf.Bytes(), nil
}

// stop drains the daemon with SIGTERM, waits for it to exit, and returns
// its peak resident set size in MiB.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	// The stderr pipe reaches EOF when the daemon exits; Wait must not run
	// before the reader is done with it.
	select {
	case <-d.logs:
	case <-time.After(30 * time.Second):
		d.kill()
		return 0, errors.New("triosd did not drain within 30s")
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("triosd exit: %v: %s", err, d.tail.String())
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for triosd")
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// kill stops the daemon without a drain, for error paths.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.logs
	_ = d.cmd.Wait()
}
