package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifestDoc is the part of BENCHMARK.json the self-check reads.
type manifestDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifestDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m manifestDoc
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &m, nil
}

// worseBy is how much b is worse than a as a share of a, in the metric's own
// direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// deterministicCounts are the traced counts that must repeat exactly on
// train-comm, whose plan does not depend on any measurement.
var deterministicCounts = []string{"engine.comm_bytes_per_epoch", "engine.msgs_per_epoch"}

// runAA is the A/A self-check: the whole set twice with the same code, set B
// in the opposite workload order, each workload `repeats` times per set on
// seeds seed, seed+1, .... It prints a markdown table — per workload and
// end-to-end metric both medians, how much worse B is than A, the bound, and
// with repeats > 1 the quartile spread of each set — and exits non-zero when
// B is worse than A by more than the bound, when a spread (other than
// setup_s's) exceeds its bound, when a run fails, or when train-comm's
// traced byte and message counts differ between the sets.
func runAA(manifestPath string, seed uint64, seconds float64, repeats int, quick bool, outDir string, stdout, stderr io.Writer) int {
	if repeats < 1 {
		fmt.Fprintf(stderr, "benchmark: -repeats must be at least 1\n")
		return 2
	}
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	ok := true
	// values[set][workload][metric] holds one value per repeat.
	var values [2]map[string]map[string][]float64
	var counts [2]map[string]float64
	for set := 0; set < 2; set++ {
		values[set] = map[string]map[string][]float64{}
		order := append([]workload(nil), workloads...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			values[set][w.name] = map[string][]float64{}
			for r := 0; r < repeats; r++ {
				res, err := runChild(w.name, seed+uint64(r), seconds, false, quick, outDir, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: set %c: %v\n", 'A'+set, err)
					ok = false
				}
				if res == nil {
					continue
				}
				if res.Failed > 0 {
					fmt.Fprintf(stderr, "benchmark: set %c: %s failed %d of %d operations\n", 'A'+set, w.name, res.Failed, res.Attempted)
					ok = false
				}
				for name, m := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
			}
		}
		res, err := runChild("train-comm", seed, seconds, true, quick, outDir, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: set %c: traced %v\n", 'A'+set, err)
			ok = false
		}
		counts[set] = map[string]float64{}
		if res != nil {
			for _, name := range deterministicCounts {
				counts[set][name] = res.Metrics[name].Value
			}
		}
	}

	host, _ := json.Marshal(hostFacts()) // a map of strings and ints always encodes
	fmt.Fprintf(stdout, "# A/A self-check\n\nTwo sets of runs of the same code; set B runs the workloads in the opposite order.\n")
	fmt.Fprintf(stdout, "%d run(s) per workload and set on seeds %d..%d, %g s measured window, host `%s`.\n\n", repeats, seed, seed+uint64(repeats)-1, seconds, host)
	fmt.Fprintf(stdout, "`B worse by` is in the metric's own direction (negative: B was better). `spread` is the distance between the quartiles of a set's runs as a share of their median")
	if repeats < 2 {
		fmt.Fprintf(stdout, " (needs -repeats 2 or more)")
	}
	fmt.Fprintf(stdout, ".\n\n| workload | metric | unit | A median | B median | B worse by | bound | spread A | spread B | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n")
	for _, mw := range man.Workloads {
		for _, mm := range man.EndToEnd {
			a, b := values[0][mw.Name][mm.Name], values[1][mw.Name][mm.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stdout, "| %s | %s | %s | - | - | - | %.0f%% | - | - | MISSING |\n", mw.Name, mm.Name, mm.Unit, 100*mm.Bound)
				ok = false
				continue
			}
			worse := worseBy(median(a), median(b), mm.Better)
			verdict := "ok"
			if worse > mm.Bound {
				verdict = "B WORSE THAN BOUND"
			}
			spreadA, spreadB := "-", "-"
			if len(a) > 1 && len(b) > 1 {
				sa, sb := iqrShare(a), iqrShare(b)
				spreadA, spreadB = fmt.Sprintf("%.2f%%", 100*sa), fmt.Sprintf("%.2f%%", 100*sb)
				if mm.Name != "setup_s" && math.Max(sa, sb) > mm.Bound {
					verdict = "SPREAD OVER BOUND"
				}
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g | %+.2f%% | %.0f%% | %s | %s | %s |\n",
				mw.Name, mm.Name, mm.Unit, median(a), median(b), 100*worse, 100*mm.Bound, spreadA, spreadB, verdict)
		}
	}
	fmt.Fprintf(stdout, "\nDeterminism on train-comm (traced run, seed %d): ", seed)
	for i, name := range deterministicCounts {
		a, b := counts[0][name], counts[1][name]
		same := "identical"
		if a != b || a == 0 {
			same = "DIFFERENT"
			ok = false
		}
		if i > 0 {
			fmt.Fprintf(stdout, "; ")
		}
		fmt.Fprintf(stdout, "`%s` %.0f vs %.0f (%s)", name, a, b, same)
	}
	fmt.Fprintf(stdout, ".\n")
	if !ok {
		fmt.Fprintf(stdout, "\nRESULT: FAILED\n")
		return 1
	}
	fmt.Fprintf(stdout, "\nRESULT: ok\n")
	return 0
}
