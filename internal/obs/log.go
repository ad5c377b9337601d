package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// Format selects the line encoding.
type Format int

const (
	// FormatLogfmt writes `time=... level=info msg="..." k=v` lines — the
	// default, and grep-compatible with the old log.Printf output because
	// the full message text survives inside msg.
	FormatLogfmt Format = iota
	// FormatJSON writes one JSON object per line.
	FormatJSON
)

// ParseFormat maps a -log-format flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "logfmt", "":
		return FormatLogfmt, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatLogfmt, fmt.Errorf("unknown log format %q (want logfmt|json)", s)
}

// Logger is a leveled structured logger. Lines carry a timestamp, the level,
// the message, then per-call key/value pairs. A nil *Logger discards
// everything, so optional logging call sites need no guards. Loggers are
// safe for concurrent use.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	json  bool
}

// NewLogger builds a logger writing to w at the given level and format.
func NewLogger(w io.Writer, level Level, format Format) *Logger {
	return &Logger{w: w, level: level, json: format == FormatJSON}
}

// Enabled reports whether a line at level would be written — the guard for
// callers that build expensive attributes.
func (l *Logger) Enabled(level Level) bool { return l != nil && level >= l.level }

// Info logs at LevelInfo. kv alternates keys and values; values are
// rendered with fmt.Sprint.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// attrs pairs up a kv list. An odd trailing key gets a "(MISSING)" value so
// a mistake is visible in the output instead of dropped.
func attrs(kv []any) []Attr {
	if len(kv) == 0 {
		return nil
	}
	out := make([]Attr, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		key := fmt.Sprint(kv[i])
		value := "(MISSING)"
		if i+1 < len(kv) {
			value = fmt.Sprint(kv[i+1])
		}
		out = append(out, Attr{Key: key, Value: value})
	}
	return out
}

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	line := make([]byte, 0, 128)
	ts := time.Now().UTC().Format("2006-01-02T15:04:05.000Z")
	all := attrs(kv)
	if l.json {
		line = append(line, `{"time":`...)
		line = appendJSONString(line, ts)
		line = append(line, `,"level":`...)
		line = appendJSONString(line, level.String())
		line = append(line, `,"msg":`...)
		line = appendJSONString(line, msg)
		for _, a := range all {
			line = append(line, ',')
			line = appendJSONString(line, a.Key)
			line = append(line, ':')
			line = appendJSONString(line, a.Value)
		}
		line = append(line, '}', '\n')
	} else {
		line = append(line, "time="...)
		line = append(line, ts...)
		line = append(line, " level="...)
		line = append(line, level.String()...)
		line = append(line, " msg="...)
		line = appendLogfmtValue(line, msg)
		for _, a := range all {
			line = append(line, ' ')
			line = append(line, logfmtKey(a.Key)...)
			line = append(line, '=')
			line = appendLogfmtValue(line, a.Value)
		}
		line = append(line, '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(line)
}

// logfmtKey strips the characters that would break logfmt key syntax.
func logfmtKey(k string) string {
	if !strings.ContainsAny(k, " =\"\n") {
		return k
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '=', '"', '\n':
			return '_'
		}
		return r
	}, k)
}

// appendLogfmtValue appends v, quoting when it contains logfmt metacharacters.
func appendLogfmtValue(line []byte, v string) []byte {
	if v != "" && !strings.ContainsAny(v, " =\"\n\t") {
		return append(line, v...)
	}
	return appendJSONString(line, v)
}

// appendJSONString appends s as a JSON string literal.
func appendJSONString(line []byte, s string) []byte {
	enc, err := json.Marshal(s)
	if err != nil { // cannot happen for a string; keep the line well-formed
		return append(line, `"?"`...)
	}
	return append(line, enc...)
}
