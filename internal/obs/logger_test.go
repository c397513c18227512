package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"regexp"
	"strings"
	"testing"
)

// tsPattern matches the ts value: a UTC timestamp with milliseconds.
const tsPattern = `\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z`

func TestLoggerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, false, slog.LevelInfo).Info("epoch done", "epoch", 3, "loss", 0.421875, "phase", "forward pass")
	want := regexp.MustCompile(`^ts=` + tsPattern + ` level=info msg="epoch done" epoch=3 loss=0.421875 phase="forward pass"\n$`)
	if !want.MatchString(buf.String()) {
		t.Fatalf("line = %q\nwant  %s", buf.String(), want)
	}
}

// TestLoggerJSON asserts the JSON lines' key order, not just their content:
// ts, level and msg come first, as in the text form.
func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, true, slog.LevelInfo).Warn("hello", "n", 2, "who", `says "hi"`)
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %q", buf.String())
	}
	var keys []string
	vals := map[string]any{}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		vals[k.(string)] = v
	}
	if got := strings.Join(keys, ","); got != "ts,level,msg,n,who" {
		t.Fatalf("keys = %s, want ts,level,msg,n,who", got)
	}
	if !regexp.MustCompile(`^` + tsPattern + `$`).MatchString(vals["ts"].(string)) {
		t.Fatalf("ts = %v", vals["ts"])
	}
	if vals["level"] != "warn" || vals["msg"] != "hello" || vals["n"] != float64(2) || vals["who"] != `says "hi"` {
		t.Fatalf("obj = %v", vals)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, false, slog.LevelInfo)
	l.Debug("hidden")
	l.Info("shown")
	if strings.Contains(buf.String(), "hidden") || !strings.Contains(buf.String(), "shown") {
		t.Fatalf("level filter broken: %q", buf.String())
	}
	buf.Reset()
	l = NewLogger(&buf, false, slog.LevelError)
	l.Warn("suppressed")
	l.Error("kept", "err", errors.New("boom"))
	if strings.Contains(buf.String(), "suppressed") || !strings.Contains(buf.String(), "level=error msg=kept err=boom") {
		t.Fatalf("error-level filter: %q", buf.String())
	}
}

// TestLoggerWithFields checks that a derived logger's fields follow the
// three leading keys instead of displacing them.
func TestLoggerWithFields(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, false, slog.LevelDebug).With("worker", 3).Debug("start", "epoch", 1)
	want := regexp.MustCompile(`^ts=` + tsPattern + ` level=debug msg=start worker=3 epoch=1\n$`)
	if !want.MatchString(buf.String()) {
		t.Fatalf("line = %q\nwant  %s", buf.String(), want)
	}
}

// TestLoggerLevelNamesRoundTrip pins the -log-level contract: the name a line
// prints for each level is a name the CLIs' flag parsing (slog.Level's
// UnmarshalText) accepts back, and an unknown name is rejected.
func TestLoggerLevelNamesRoundTrip(t *testing.T) {
	for _, lv := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		var buf bytes.Buffer
		NewLogger(&buf, false, lv).Log(context.Background(), lv, "x")
		m := regexp.MustCompile(`level=(\w+) `).FindStringSubmatch(buf.String())
		if m == nil || m[1] != strings.ToLower(m[1]) {
			t.Fatalf("%v: line %q has no lower-case level", lv, buf.String())
		}
		var back slog.Level
		if err := back.UnmarshalText([]byte(m[1])); err != nil || back != lv {
			t.Fatalf("%q parses to %v, %v; want %v", m[1], back, err, lv)
		}
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("unknown level name accepted")
	}
}
