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
		msg  string // substring of stderr
	}{
		{"malformed watch rules", []string{"-watch-rules", "slo_p99"}, "-watch-rules: "},
		{"NaN hitrate watch rule", []string{"-watch-rules", "hitrate=NaN"}, "-watch-rules: obs: watch rule hitrate=\"NaN\": want a floor in (0,1]"},
		{"epoch watch rules", []string{"-watch-rules", "stall=1s"}, "stall, regress, straggler and window watch training epochs"},
		{"unknown log level", []string{"-log-level", "bogus"}, `-log-level: slog: level string "bogus": unknown name`},
		{"NaN lr", []string{"-train", "2", "-lr", "NaN"}, "-lr must be positive and finite as a float32, got NaN"},
		{"infinite lr", []string{"-train", "2", "-lr", "+Inf"}, "-lr must be positive and finite as a float32, got +Inf"},
		{"negative lr", []string{"-train", "2", "-lr", "-1"}, "-lr must be positive and finite as a float32, got -1"},
		{"zero lr", []string{"-train", "2", "-lr", "0"}, "-lr must be positive and finite as a float32, got 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.msg) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.msg)
			}
			// Nothing is loaded before the flags are checked: no log line.
			if stdout.Len() != 0 {
				t.Errorf("rejected invocation wrote to stdout: %q", stdout.String())
			}
		})
	}
}

func TestRunWithoutModelFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "need a model: pass -load-model FILE or -train EPOCHS") {
		t.Fatalf("stdout has no fatal log line: %q", stdout.String())
	}
}
