package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	// LevelOff disables all output.
	LevelOff
)

// String renders the level the way it appears in emitted events.
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
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel maps a level name ("debug", "info", "warn", "error", "off")
// onto its Level.
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
	case "off", "none":
		return LevelOff, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
}

// Logger emits one JSON object per event: {"ts", "level", "event", ...kv},
// plus "trace_id"/"span_id" when logging through a context that carries a
// span. It is safe for concurrent use; each event is a single Write so
// lines never interleave.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level atomic.Int32
}

// NewLogger builds a logger writing to w at the given minimum level.
func NewLogger(w io.Writer, level Level) *Logger {
	l := &Logger{w: w}
	l.level.Store(int32(level))
	return l
}

var defaultLogger = NewLogger(os.Stderr, LevelWarn)

// DefaultLogger returns the process-wide logger (stderr at warn).
func DefaultLogger() *Logger { return defaultLogger }

// SetLevel changes the minimum emitted level.
func (l *Logger) SetLevel(level Level) { l.level.Store(int32(level)) }

// Enabled reports whether events at level would be emitted.
func (l *Logger) Enabled(level Level) bool { return level >= Level(l.level.Load()) }

// Event emits one structured event with alternating key/value pairs.
// Non-string keys are stringified; a trailing key without a value gets
// "(MISSING)". ctx may be nil; when it carries a span, trace_id and
// span_id are attached for correlation.
func (l *Logger) Event(ctx context.Context, level Level, event string, kv ...any) {
	if l == nil || !l.Enabled(level) {
		return
	}
	fields := map[string]any{
		"ts":    time.Now().UTC().Format(time.RFC3339Nano),
		"level": level.String(),
		"event": event,
	}
	// IDs are emitted as hex strings, never JSON numbers: a uint64 span ID
	// above 2^53 would silently lose precision through any float64-decoding
	// consumer, and the hex forms match traceparent and /debug/traces.
	if sp := SpanFromContext(ctx); sp != nil {
		fields["trace_id"] = sp.TraceID.String()
		fields["span_id"] = FormatSpanID(sp.SpanID)
	}
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		if i+1 < len(kv) {
			fields[key] = jsonSafe(kv[i+1])
		} else {
			fields[key] = "(MISSING)"
		}
	}
	line, err := json.Marshal(fields)
	if err != nil {
		line = []byte(fmt.Sprintf(`{"level":%q,"event":%q,"log_error":%q}`,
			level.String(), event, err.Error()))
	}
	line = append(line, '\n')
	l.mu.Lock()
	l.w.Write(line)
	l.mu.Unlock()
}

// jsonSafe converts values json.Marshal would reject (errors, durations as
// opaque types are fine, but error interfaces marshal to {}) into strings.
func jsonSafe(v any) any {
	switch x := v.(type) {
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	default:
		return v
	}
}

// Debug emits a debug event without span correlation.
func (l *Logger) Debug(event string, kv ...any) { l.Event(nil, LevelDebug, event, kv...) }

// Info emits an info event without span correlation.
func (l *Logger) Info(event string, kv ...any) { l.Event(nil, LevelInfo, event, kv...) }

// Warn emits a warn event without span correlation.
func (l *Logger) Warn(event string, kv ...any) { l.Event(nil, LevelWarn, event, kv...) }

// Error emits an error event without span correlation.
func (l *Logger) Error(event string, kv ...any) { l.Event(nil, LevelError, event, kv...) }
