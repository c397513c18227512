package obs

import (
	"io"
	"log/slog"
	"strings"
)

// NewLogger returns the structured logger the CLIs share: log/slog's text
// handler (key=value) or, with json set, its JSON handler, writing records at
// level and above to w. Every line starts with the keys ts, level and msg, in
// that order, with a UTC millisecond timestamp and the level name in lower
// case:
//
//	ts=2026-08-05T12:00:00.000Z level=info msg="epoch done" epoch=3 loss=0.42
//	{"ts":"2026-08-05T12:00:00.000Z","level":"info","msg":"epoch done","epoch":3}
func NewLogger(w io.Writer, json bool, level slog.Level) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: logBuiltins}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// logBuiltins renders slog's built-in time and level attributes the way the
// lines read: time under the key ts, level names lower-cased.
func logBuiltins(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		return slog.String("ts", a.Value.Time().UTC().Format("2006-01-02T15:04:05.000Z07:00"))
	case slog.LevelKey:
		return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
	}
	return a
}
