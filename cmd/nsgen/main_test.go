package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"neutronstar/internal/dataset"
)

func TestRunFlagValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		msg  string // substring of stderr
	}{
		{"no mode", nil, 2, "one of -table2, -dataset or -import is required"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"export without dataset", []string{"-export", "x"}, 2, "-export writes the -dataset dataset"},
		{"export with table2", []string{"-table2", "-export", "x"}, 2, "-export writes the -dataset dataset"},
		{"table2 with import", []string{"-table2", "-import", "x"}, 2, "are exclusive"},
		{"dataset with import", []string{"-dataset", "cora", "-import", "x"}, 2, "are exclusive"},
		{"zero parts", []string{"-dataset", "cora", "-parts", "0"}, 2, "-parts must be at least 1, got 0"},
		{"negative parts", []string{"-dataset", "cora", "-parts", "-3"}, 2, "-parts must be at least 1, got -3"},
		{"unknown dataset", []string{"-dataset", "nope"}, 1, "level=error msg=fatal"},
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

// splitLine is the line describe prints for ds.
func splitLine(ds *dataset.Dataset) string {
	return fmt.Sprintf("train/val/test: %d/%d/%d", count(ds.TrainMask), count(ds.ValMask), count(ds.TestMask))
}

func TestRunStatsCountEverySplit(t *testing.T) {
	ds, err := dataset.LoadByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dataset", "cora", "-parts", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if count(ds.ValMask) == 0 || count(ds.TestMask) == 0 {
		t.Fatal("cora has an empty split; the check below would prove nothing")
	}
	out := stdout.String()
	if !strings.Contains(out, splitLine(ds)) {
		t.Fatalf("output does not report %q:\n%s", splitLine(ds), out)
	}
	if n := strings.Count(out, " 2 parts: cut="); n != 3 {
		t.Fatalf("%d partitioner lines, want 3:\n%s", n, out)
	}
}

func TestRunExportImportRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cora")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dataset", "cora", "-export", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("export: exit %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-import", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("import: exit %d, stderr: %s", code, stderr.String())
	}
	ds, err := dataset.LoadByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), splitLine(ds)) {
		t.Fatalf("import does not report the exported splits %q:\n%s", splitLine(ds), stdout.String())
	}
}
