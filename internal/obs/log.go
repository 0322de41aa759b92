package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Structured logging for the CLIs. Two renderings share one call surface:
//
//   - Text mode (the default) writes exactly fmt.Sprintf(format, args...)
//     plus a newline — byte-for-byte what the ad-hoc fmt.Fprintf progress
//     prints produced before the logger existed, so default CLI output is
//     unchanged.
//   - JSON mode emits one slog-style object per line with a timestamp read
//     from the injected Clock, the level, the tool, and the formatted
//     message.
//
// Levels gate what is emitted; the wall clock enters only through the
// injected Clock, so tests with a ManualClock produce byte-reproducible
// JSON logs.

// LogLevel orders log severities. LevelOff suppresses everything.
type LogLevel int8

const (
	LevelDebug LogLevel = iota
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String returns the level's lowercase name.
func (l LogLevel) String() string {
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
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// ParseLogLevel parses a -log-level flag value.
func ParseLogLevel(s string) (LogLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none":
		return LevelOff, nil
	default:
		return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error|off)", s)
	}
}

// Logger writes leveled, optionally structured log lines. A nil *Logger
// discards everything, so call sites never need nil checks. Loggers are
// safe for concurrent use.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	level LogLevel
	json  bool
	clk   Clock
	tool  string
}

// NewLogger returns a logger writing to w at the given level. jsonMode
// selects the structured rendering; clk stamps JSON records (text mode
// never reads it).
func NewLogger(w io.Writer, level LogLevel, jsonMode bool, tool string, clk Clock) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, level: level, json: jsonMode, clk: clk, tool: tool}
}

// logRecord is the JSON-mode line layout. Field order is fixed by the
// struct, so records are byte-deterministic given a fixed clock.
type logRecord struct {
	TS    string `json:"ts"`
	Level string `json:"level"`
	Tool  string `json:"tool,omitempty"`
	Msg   string `json:"msg"`
}

func (l *Logger) log(level LogLevel, format string, args ...any) {
	if l == nil || level < l.level || l.level == LevelOff {
		return
	}
	msg := fmt.Sprintf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.json {
		fmt.Fprintf(l.w, "%s\n", msg)
		return
	}
	rec := logRecord{Level: level.String(), Tool: l.tool, Msg: msg}
	if l.clk != nil {
		rec.TS = l.clk.Now().UTC().Format(time.RFC3339Nano)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		// A string-only record cannot fail to marshal.
		panic("obs: log record marshal: " + err.Error())
	}
	l.w.Write(append(b, '\n'))
}

// Infof logs at info level — the level of the pre-logger progress prints.
func (l *Logger) Infof(format string, args ...any) { l.log(LevelInfo, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.log(LevelError, format, args...) }
