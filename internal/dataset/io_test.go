package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := Load(smallSpec(GenSBM))
	dir := t.TempDir()
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != orig.NumVertices() || got.NumEdges() != orig.NumEdges() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), orig.NumVertices(), orig.NumEdges())
	}
	if got.Spec.Name != orig.Spec.Name || got.Spec.NumClasses != orig.Spec.NumClasses ||
		got.Spec.HiddenDim != orig.Spec.HiddenDim {
		t.Fatalf("meta changed: %+v", got.Spec)
	}
	if !got.Features.AllClose(orig.Features, 1e-6) {
		t.Fatal("features changed through round trip")
	}
	for v := range orig.Labels {
		if got.Labels[v] != orig.Labels[v] {
			t.Fatalf("label %d changed", v)
		}
		if got.TrainMask[v] != orig.TrainMask[v] || got.ValMask[v] != orig.ValMask[v] ||
			got.TestMask[v] != orig.TestMask[v] {
			t.Fatalf("split of %d changed", v)
		}
	}
	// Structure: same edge multiset.
	oe, ge := orig.Graph.Edges(), got.Graph.Edges()
	for i := range oe {
		if oe[i] != ge[i] {
			t.Fatalf("edge %d changed: %v vs %v", i, oe[i], ge[i])
		}
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing dir")
	}
}

func corrupt(t *testing.T, orig *Dataset, file, content string) error {
	t.Helper()
	dir := t.TempDir()
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(dir)
	return err
}

func TestLoadDirRejectsCorruption(t *testing.T) {
	orig := Load(smallSpec(GenRMAT))
	cases := []struct{ file, content string }{
		{"meta.txt", "bogus line without equals\n"},
		{"meta.txt", "classes=notanumber\n"},
		{"meta.txt", "mystery=1\n"},
		{"graph.txt", ""},
		{"graph.txt", "5 2\n0 1\n"},    // header/edge-count mismatch
		{"graph.txt", "5 1\n0 nine\n"}, // bad endpoint
		{"graph.txt", "2 1\n0 7\n"},    // out-of-range endpoint
		{"features.txt", "1 2 3\n"},    // too few rows
		{"labels.txt", "0 train\n"},    // too few labels
		{"labels.txt", "zzz train\n"},  // bad label
		{"labels.txt", "0 weekend\n"},  // bad split
	}
	for _, c := range cases {
		if err := corrupt(t, orig, c.file, c.content); err == nil {
			t.Fatalf("corrupting %s with %q was not detected", c.file, c.content)
		}
	}
}

func TestLoadDirRejectsLabelOutOfClassRange(t *testing.T) {
	orig := Load(smallSpec(GenRMAT))
	dir := t.TempDir()
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Rewrite meta to declare fewer classes than the labels use.
	if err := os.WriteFile(filepath.Join(dir, "meta.txt"), []byte("name=x\nclasses=1\nhidden=4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("expected out-of-range label rejection")
	}

	// A negative label, and one that int32 would wrap into range (2^32 + 1
	// wraps to 1), are outside the classes too.
	for _, label := range []string{"-1", "4294967297"} {
		lines := make([]byte, 0, 8*orig.NumVertices())
		for v := 0; v < orig.NumVertices(); v++ {
			l := "0"
			if v == 3 {
				l = label
			}
			lines = append(lines, l+" train\n"...)
		}
		err := corrupt(t, orig, "labels.txt", string(lines))
		if err == nil || !strings.Contains(err.Error(), "label "+label+" outside") {
			t.Fatalf("label %s: err = %v, want an outside-classes error", label, err)
		}
	}
}

// TestLoadDirRejectsBadFeatureRows: a row longer or shorter than the first
// and a NaN or ±Inf value are errors naming the row, never a panic or a
// dataset that trains to NaN.
func TestLoadDirRejectsBadFeatureRows(t *testing.T) {
	orig := Load(smallSpec(GenRMAT))
	rows := func(second string) string {
		var b strings.Builder
		for v := 0; v < orig.NumVertices(); v++ {
			switch v {
			case 1:
				b.WriteString(second)
			default:
				b.WriteString("1 2 3 4")
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, c := range []struct{ row, want string }{
		{"1 2 3 4 5", "feature row 1 holds 5 values, row 0 holds 4"},
		{"1 2 3", "feature row 1 holds 3 values, row 0 holds 4"},
		{"NaN 1 2 3", `feature "NaN" on row 1 is not finite`},
		{"0 1 2 Inf", `feature "Inf" on row 1 is not finite`},
		{"0 -inf 2 3", `feature "-inf" on row 1 is not finite`},
	} {
		err := corrupt(t, orig, "features.txt", rows(c.row))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("row %q: err = %v, want %q", c.row, err, c.want)
		}
	}
}

func TestLoadedDatasetTrains(t *testing.T) {
	orig := Load(smallSpec(GenSBM))
	dir := t.TempDir()
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrainLabeledCount() != orig.TrainLabeledCount() {
		t.Fatal("train split size changed")
	}
}
