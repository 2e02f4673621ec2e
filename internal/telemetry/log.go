package telemetry

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. The default logger drops records below its
// configured level.
type Level int32

// Log levels, least to most severe. LevelOff silences everything.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String implements fmt.Stringer.
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
	case LevelOff:
		return "off"
	default:
		return fmt.Sprintf("Level(%d)", int32(l))
	}
}

// ParseLevel maps "debug", "info", "warn", "error", "off" (case
// insensitive) to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none", "silent":
		return LevelOff, nil
	default:
		return LevelInfo, fmt.Errorf("telemetry: unknown log level %q (want debug|info|warn|error|off)", s)
	}
}

// Logger writes leveled key=value records, one line per record:
//
//	t=2026-08-06T12:00:00.000Z level=info msg="pretrain done" rows=182520 dur=2.1s
//
// Safe for concurrent use.
type Logger struct {
	level   atomic.Int32
	mu      sync.Mutex
	w       io.Writer
	dropped atomic.Int64
}

// Dropped reports how many records failed to reach the underlying
// writer. Logging is best-effort by design, but a nonzero count tells
// operators the sink (disk, pipe) is rejecting writes.
func (l *Logger) Dropped() int64 { return l.dropped.Load() }

// NewLogger returns a logger writing records at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	l := &Logger{w: w}
	l.level.Store(int32(level))
	return l
}

// SetLevel changes the minimum recorded level.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

// SetOutput redirects the logger.
func (l *Logger) SetOutput(w io.Writer) {
	l.mu.Lock()
	l.w = w
	l.mu.Unlock()
}

// Log emits one record when level clears the threshold. kv is a flat
// alternating key/value list; values are formatted with %v and quoted
// when they contain spaces.
func (l *Logger) Log(level Level, msg string, kv ...any) {
	if l == nil || level < Level(l.level.Load()) || Level(l.level.Load()) == LevelOff {
		return
	}
	var b strings.Builder
	b.Grow(64 + 16*len(kv))
	b.WriteString("t=")
	b.WriteString(time.Now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteIfNeeded(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fmt.Sprintf("%v", kv[i]))
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(fmt.Sprintf("%v", kv[i+1])))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := io.WriteString(l.w, b.String()); err != nil {
		l.dropped.Add(1)
	}
}

// Debugf, Infof, Warnf, Errorf log a message with key=value pairs at
// the corresponding level.
func (l *Logger) Debugf(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }
func (l *Logger) Infof(msg string, kv ...any)  { l.Log(LevelInfo, msg, kv...) }
func (l *Logger) Warnf(msg string, kv ...any)  { l.Log(LevelWarn, msg, kv...) }
func (l *Logger) Errorf(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }

func quoteIfNeeded(s string) string {
	if strings.ContainsAny(s, " \t\"=") || s == "" {
		return strconv.Quote(s)
	}
	return s
}

// defaultLogger is the package-level logger used by library
// instrumentation; it writes to stderr at LevelWarn until a CLI's
// -log-level flag (or SetLogLevel) adjusts it.
var defaultLogger = NewLogger(os.Stderr, LevelWarn)

// Debugf, Infof, Warnf log through the package-level logger.
func Debugf(msg string, kv ...any) { defaultLogger.Debugf(msg, kv...) }
func Infof(msg string, kv ...any)  { defaultLogger.Infof(msg, kv...) }
func Warnf(msg string, kv ...any)  { defaultLogger.Warnf(msg, kv...) }

// SetLogLevel adjusts the package-level logger's threshold.
func SetLogLevel(level Level) { defaultLogger.SetLevel(level) }

// SetLogOutput redirects the package-level logger (tests point it at a
// buffer or io.Discard).
func SetLogOutput(w io.Writer) { defaultLogger.SetOutput(w) }
