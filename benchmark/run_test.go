package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary, so
// runChild — which re-executes os.Executable() — can be tested for real.
func TestMain(m *testing.M) {
	if os.Getenv("NSBENCH_TEST_CHILD") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv("NSBENCH_TEST_CHILD", "1")
	os.Exit(m.Run())
}

func loadManifest(t *testing.T) *manifestDoc {
	t.Helper()
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func TestManifestNamesTheWorkloads(t *testing.T) {
	man := loadManifest(t)
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code has %s", got, want)
	}
	setup := false
	for _, m := range man.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %g, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
}

// Every workload's -quick run, untraced and traced, must print exactly the
// metrics BENCHMARK.json declares for that mode, with the declared units.
func TestQuickRunsEmitEveryDeclaredMetric(t *testing.T) {
	man := loadManifest(t)
	declared := map[bool][]manifestMetric{false: man.EndToEnd, true: man.PerLayer}
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + "/end-to-end"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var stderr bytes.Buffer
				res, err := runChild(w.name, 11, 60, traced, true, out, &stderr) // -quick stops by count long before 60 s
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				for _, m := range declared[traced] {
					want[m.Name] = m.Unit
				}
				for name, m := range res.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("emitted name %q is not printable", name)
					}
					unit, ok := want[name]
					if !ok {
						t.Errorf("emitted metric %s is not declared in BENCHMARK.json", name)
					} else if unit != m.Unit {
						t.Errorf("metric %s emitted in %s, declared in %s", name, m.Unit, unit)
					}
					delete(want, name)
				}
				for name := range want {
					t.Errorf("declared metric %s was not emitted", name)
				}
				if traced {
					data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
					if err != nil {
						t.Fatal(err)
					}
					var spans []span
					if err := json.Unmarshal(data, &spans); err != nil {
						t.Fatalf("span file: %v", err)
					}
					if len(spans) < 20 {
						t.Errorf("span file holds %d spans", len(spans))
					}
					for _, s := range spans {
						if s.Name == "" || s.EndNS < s.StartNS || s.Parent >= s.ID || s.Workload != w.name {
							t.Fatalf("malformed span %+v", s)
						}
					}
				}
			})
		}
	}
}

func TestChildFailurePropagates(t *testing.T) {
	var stderr bytes.Buffer
	if res, err := runChild("no-such-workload", 11, 1, false, true, t.TempDir(), &stderr); err == nil {
		t.Errorf("a child that exits non-zero gave no error (result %+v)", res)
	}
	if !strings.Contains(stderr.String(), "no-such-workload") {
		t.Errorf("child's complaint was not passed through: %q", stderr.String())
	}
	var out bytes.Buffer
	if code := run([]string{"-workload", "no-such-workload"}, &out, &stderr); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want non-zero and no result line", code, out.String())
	}
	if code := run([]string{"-trace", "2"}, &out, &stderr); code == 0 {
		t.Error("-trace 2 was accepted")
	}
}

// An incorrect result must fail the run even when every metric was measured.
func TestFailedCheckMakesRunIncorrect(t *testing.T) {
	res := &result{Attempted: 10, Metrics: map[string]metric{"op_ms_p50": {1, "ms"}}, problems: []string{"planted"}}
	got := finish(workloads[0], &runConfig{}, res)
	if got.Correct || got.Failed == 0 {
		t.Errorf("a failed check left correct=%v failed=%d", got.Correct, got.Failed)
	}
	nan := &result{Attempted: 1, Metrics: map[string]metric{"x": {Value: math.NaN(), Unit: "ms"}}}
	if got := finish(workloads[0], &runConfig{}, nan); got.Correct || len(got.Metrics) != 0 {
		t.Errorf("a NaN metric left correct=%v metrics=%v", got.Correct, got.Metrics)
	}
}
