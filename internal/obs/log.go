package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
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
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel maps a flag value onto a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// Logger writes leveled key=value lines:
//
//	ts=2026-08-06T12:00:00.000Z level=info msg="listening" addr=:8080
//
// Lines below the logger's level are dropped before formatting. A nil
// *Logger is valid and logs nothing, so call sites never need a nil
// check. Key/value pairs alternate key, value; a trailing odd key gets
// the value "(missing)".
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	now   func() time.Time // test hook; defaults to time.Now
}

// NewLogger returns a Logger writing lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level, now: time.Now}
}

// Enabled reports whether lines at level would be written.
func (l *Logger) Enabled(level Level) bool { return l != nil && level >= l.level }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteValue(msg))
	appendPairs(&b, kv)
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, b.String()) // logging best-effort by design
}

// appendPairs renders alternating key/value pairs as " k=v".
func appendPairs(b *strings.Builder, kv []any) {
	for i := 0; i < len(kv); i += 2 {
		key := fmt.Sprint(kv[i])
		val := "(missing)"
		if i+1 < len(kv) {
			val = fmt.Sprint(kv[i+1])
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(quoteValue(val))
	}
}

// quoteValue quotes a value only when it needs it — spaces, quotes,
// '=' or control characters — keeping the common case grep-friendly.
func quoteValue(s string) string {
	if s == "" {
		return `""`
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return strconv.Quote(s)
		}
	}
	return s
}
