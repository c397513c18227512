package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		msg  string // substring of stderr
	}{
		// The perf-smoke mode is gone (benchmark/ is the ruler); its flags
		// must be rejected, not silently ignored.
		{"removed -json", []string{"-json", "x"}, 2, "flag provided but not defined: -json"},
		{"removed -policy", []string{"-exp", "table2", "-policy", "x"}, 2, "flag provided but not defined: -policy"},
		{"removed -critpath", []string{"-critpath", "x"}, 2, "flag provided but not defined: -critpath"},
		{"no -exp", nil, 2, "-exp is required"},
		{"unknown -exp", []string{"-exp", "fig99"}, 2, `unknown experiment "fig99"`},
		{"negative workers", []string{"-exp", "table2", "-workers", "-1"}, 2, "-workers must be non-negative, got -1"},
		{"negative epochs", []string{"-exp", "table2", "-epochs", "-1"}, 2, "-epochs must be non-negative, got -1"},
		{"empty graphs entry", []string{"-exp", "table2", "-graphs", "google,,reddit"}, 2, "-graphs contains an empty dataset name"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected invocation wrote to stdout: %q", stdout.String())
			}
		})
	}
}

func TestRunTable2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "==== table2 ") {
		t.Fatalf("no table2 header in output:\n%s", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
}

// TestRunQuickHeader pins that -quick runs at QuickScale's own size: the
// -workers and -epochs defaults (0) must not override it.
func TestRunQuickHeader(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	want := "==== table2 (workers=4 epochs=1 graphs=[google reddit]) ====\n"
	if !strings.HasPrefix(stdout.String(), want) {
		t.Fatalf("output does not start with %q:\n%s", want, stdout.String())
	}
}
