package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestLoggerLogfmt(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo, FormatLogfmt)
	l.log(LevelDebug, "dropped", nil)
	l.Info("triosd listening on :8080 (prod)", "workers", 4, "queue", 64)
	l.Error("store write failed", "err", "disk full")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (debug filtered):\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `msg="triosd listening on :8080 (prod)"`) {
		t.Fatalf("msg not quoted-preserved: %s", lines[0])
	}
	if !strings.Contains(lines[0], "level=info") || !strings.Contains(lines[0], "workers=4") || !strings.Contains(lines[0], "queue=64") {
		t.Fatalf("logfmt fields missing: %s", lines[0])
	}
	if !strings.HasPrefix(lines[0], "time=") {
		t.Fatalf("no leading timestamp: %s", lines[0])
	}
	if !strings.Contains(lines[1], "level=error") || !strings.Contains(lines[1], `err="disk full"`) {
		t.Fatalf("error line: %s", lines[1])
	}
}

func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug, FormatJSON)
	l.log(LevelDebug, "probe", []any{"replica", "http://r1", "ok", true})
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, buf.String())
	}
	if rec["level"] != "debug" || rec["msg"] != "probe" || rec["replica"] != "http://r1" || rec["ok"] != "true" {
		t.Fatalf("json fields: %v", rec)
	}
	if _, ok := rec["time"].(string); !ok {
		t.Fatalf("missing time: %v", rec)
	}
}

func TestLoggerOddKeyValues(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo, FormatLogfmt)
	l.Info("m", "key") // trailing key with no value
	if !strings.Contains(buf.String(), "(MISSING)") {
		t.Fatalf("odd kv not flagged: %s", buf.String())
	}
}

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	l.Info("x", "k", "v")
	l.Error("y")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	cases := map[string]Level{"": LevelInfo, "debug": LevelDebug, "info": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
	if f, err := ParseFormat("json"); err != nil || f != FormatJSON {
		t.Errorf("ParseFormat(json) = %v, %v", f, err)
	}
	if f, err := ParseFormat(""); err != nil || f != FormatLogfmt {
		t.Errorf("ParseFormat(empty) = %v, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted junk")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo, FormatLogfmt)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				l.Info("tick", "worker", j)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "time=") || !strings.Contains(line, "msg=tick") {
			t.Fatalf("torn line: %q", line)
		}
	}
}
