// Command benchmark is the repository's end-to-end performance harness: four
// workloads (three training regimes and one serving mix) measured from the
// outside — epoch time, request latency, throughput, set-up time and peak
// memory — plus, in a separate traced run, a ladder of per-layer metrics
// taken by calling each package's public functions at the workload's own
// shapes. See README.md in this directory and BENCHMARK.json at the root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// metric is one measured value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; its JSON form is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists the failed output checks and workload-shape
	// assertions; any entry makes the run incorrect.
	problems []string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runConfig is what one workload run needs to know.
type runConfig struct {
	seed    uint64
	seconds float64
	sz      sizes
	outDir  string
	// tr is nil on untraced runs.
	tr    *tracer
	notes io.Writer
}

// notef prints context that is not a metric (sample counts, host facts) to
// the notes stream, stderr by default; stdout stays machine-readable.
func (c *runConfig) notef(format string, args ...any) {
	if c.notes != nil {
		fmt.Fprintf(c.notes, format+"\n", args...)
	}
}

// peakRSSMB reads the process's high-water resident set from the kernel.
// Sampling the resident set during the window only was tried and dropped: it
// came out bimodal (600 or 1 000 MB on train-compute), depending on whether
// the Go scavenger had returned set-up's pages yet, while the high-water mark
// repeats within a few percent.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runWorkload executes one workload in this process.
func runWorkload(w workload, cfg *runConfig, traced bool) (*result, error) {
	var (
		res *result
		err error
	)
	switch {
	case traced:
		res, err = runTraced(w, cfg)
	case w.serving:
		res, err = runServing(w, cfg)
	default:
		res, err = runTraining(w, cfg)
	}
	if err != nil {
		return nil, err
	}
	return finish(w, cfg, res), nil
}

// finish turns a measured result into the printed one: a metric that cannot
// be printed is a failed check, any failed check makes the run incorrect, and
// an incorrect run counts at least one failed operation.
func finish(w workload, cfg *runConfig, res *result) *result {
	for name, m := range res.Metrics {
		switch {
		case !metricName.MatchString(name):
			res.problems = append(res.problems, fmt.Sprintf("metric name %q is not printable", name))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			res.problems = append(res.problems, fmt.Sprintf("metric %s is %v", name, m.Value))
		default:
			continue
		}
		delete(res.Metrics, name) // JSON cannot carry NaN/Inf
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	if len(res.problems) > 0 && res.Failed == 0 {
		res.Failed = 1
	}
	res.Correct = len(res.problems) == 0
	for _, p := range res.problems {
		cfg.notef("%s: FAILED CHECK: %s", w.name, p)
	}
	return res
}

// hostFacts is recorded with every run: what the numbers were taken on.
func hostFacts() map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

// runChild re-executes this binary for one workload, so peak RSS, pool state
// and GC history never depend on which workloads ran before. It returns the
// child's parsed result line; a child that exits non-zero is an error (its
// result, when it printed one, is still returned).
func runChild(name string, seed uint64, seconds float64, traced, quick bool, outDir string, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[traced],
		"-out", outDir,
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", name, runErr)
		}
		return nil, fmt.Errorf("workload %s: unreadable result line: %w", name, err)
	}
	if runErr != nil {
		return &res, fmt.Errorf("workload %s: %w", name, runErr)
	}
	return &res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (each in its own child process)")
		seed     = fs.Uint64("seed", 11, "seed for the generated dataset, the hot set and the request streams (23 is the held-out seed)")
		seconds  = fs.Float64("seconds", 16, "length of the measured window")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics with every recorder off; 1: traced run printing the per-layer metrics and writing spans")
		quick    = fs.Bool("quick", false, "tiny graph and fixed small counts (for tests; the numbers mean nothing)")
		outDir   = fs.String("out", "benchmark/out", "directory for the traced run's span files")
		aa       = fs.Bool("aa", false, "A/A self-check: run the whole set twice in opposite workload order and compare against the bounds in BENCHMARK.json")
		repeats  = fs.Int("repeats", 1, "with -aa: runs per workload and set, each on another seed; more than one also reports quartile spreads")
		manifest = fs.String("manifest", "BENCHMARK.json", "with -aa: the manifest holding the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1\n")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive\n")
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	traced := *trace == 1

	if *aa {
		return runAA(*manifest, *seed, *seconds, *repeats, *quick, *outDir, stdout, stderr)
	}
	if *name == "all" {
		return runAll(*seed, *seconds, traced, *quick, *outDir, stdout, stderr)
	}

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	cfg := &runConfig{seed: *seed, seconds: *seconds, sz: fullSizes, outDir: *outDir, notes: stderr}
	if *quick {
		cfg.sz = quickSizes
	}
	host, _ := json.Marshal(hostFacts()) // a map of strings and ints always encodes
	cfg.notef("%s: seed %d, %gs window, trace %d, host %s", w.name, *seed, *seconds, *trace, host)
	res, err := runWorkload(w, cfg, traced)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload in its own child process and prints one JSON
// document: the host facts and each workload's result by name.
func runAll(seed uint64, seconds float64, traced, quick bool, outDir string, stdout, stderr io.Writer) int {
	doc := struct {
		Host      map[string]any     `json:"host"`
		Seed      uint64             `json:"seed"`
		Seconds   float64            `json:"seconds"`
		Traced    bool               `json:"traced"`
		Workloads map[string]*result `json:"workloads"`
	}{Host: hostFacts(), Seed: seed, Seconds: seconds, Traced: traced, Workloads: map[string]*result{}}
	code := 0
	for _, w := range workloads {
		res, err := runChild(w.name, seed, seconds, traced, quick, outDir, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			code = 1
		}
		if res != nil {
			doc.Workloads[w.name] = res
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encode document: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return code
}
