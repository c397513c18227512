package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		msg  string // substring of stderr
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined: -bogus"},
		// Every record carries its critical path: the retired switch must
		// be rejected, not silently ignored.
		{"removed -critpath", []string{"-critpath"}, "flag provided but not defined: -critpath"},
		// Replica rows are stored exact: a script asking for a quantised
		// store must fail loudly, not silently train exact.
		{"removed -rep-quant", []string{"-rep-quant", "int8"}, "flag provided but not defined: -rep-quant"},
		{"empty dataset", []string{"-dataset", " "}, "-dataset must not be empty (available: "},
		{"zero workers", []string{"-workers", "0"}, "-workers must be positive, got 0"},
		{"zero epochs", []string{"-epochs", "0"}, "-epochs must be positive, got 0"},
		{"negative layers", []string{"-layers", "-1"}, "-layers must be non-negative, got -1"},
		{"NaN lr", []string{"-lr", "NaN"}, "-lr must be positive and finite as a float32, got NaN"},
		{"infinite lr", []string{"-lr", "+Inf"}, "-lr must be positive and finite as a float32, got +Inf"},
		{"lr past float32", []string{"-lr", "1e300"}, "-lr must be positive and finite as a float32, got 1e+300"},
		{"negative lr", []string{"-lr", "-1"}, "-lr must be positive and finite as a float32, got -1"},
		{"zero lr", []string{"-lr", "0"}, "-lr must be positive and finite as a float32, got 0"},
		{"zero ckpt-every", []string{"-ckpt-every", "0"}, "-ckpt-every must be positive, got 0"},
		{"resume without dir", []string{"-resume"}, "-resume requires -ckpt-dir"},
		{"unknown engine", []string{"-engine", "bogus"},
			`-engine "bogus": valid values are depcache, depcomm, hybrid, deptp, hybrid3, deprep, hybrid4`},
		{"unknown model", []string{"-model", "sage2"}, `-model "sage2": valid values are gcn, gin, gat, sage`},
		{"unknown network", []string{"-network", "fast"}, `-network "fast": valid values are local, ecs, ibv`},
		{"malformed watch rules", []string{"-watch-rules", "stall"}, "-watch-rules: "},
		{"NaN regress watch rule", []string{"-watch-rules", "regress=NaN"}, "-watch-rules: obs: watch rule regress=\"NaN\": want a factor > 1"},
		{"infinite straggler watch rule", []string{"-watch-rules", "straggler=Inf"}, "-watch-rules: obs: watch rule straggler=\"Inf\": want a bound > 1"},
		{"serving watch rules", []string{"-watch-rules", "slo_p99=250ms"}, "slo_p99, slo_window and hitrate watch a server"},
		{"unknown log level", []string{"-log-level", "bogus"}, `-log-level: slog: level string "bogus": unknown name`},
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

func TestRunHelpListsEveryModel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "model: gcn, gin, gat, sage") {
		t.Fatalf("help does not list every model:\n%s", stderr.String())
	}
}

func TestRunUnknownDatasetFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dataset", "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "level=error msg=fatal") {
		t.Fatalf("stdout has no fatal log line: %q", stdout.String())
	}
}

func TestRunTrainsAndSaves(t *testing.T) {
	model := filepath.Join(t.TempDir(), "sage.model")
	var stdout, stderr bytes.Buffer
	args := []string{"-dataset", "cora", "-workers", "2", "-epochs", "2", "-model", "sage", "-save-model", model}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	for _, want := range []string{"msg=accuracy", "msg=\"model saved\"", "summary=\"critical path: "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout has no %s line:\n%s", want, stdout.String())
		}
	}
}
