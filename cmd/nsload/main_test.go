package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"neutronstar/internal/dataset"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/serve"
)

// TestRunRejectsBeforeDialing: every invalid invocation must fail with a
// message before the first request leaves the process.
func TestRunRejectsBeforeDialing(t *testing.T) {
	var dials atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		dials.Add(1)
		http.Error(w, "the test server should never be reached", http.StatusTeapot)
	}))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	for _, c := range []struct {
		name string
		args []string
		code int
		msg  string // substring of stderr
	}{
		// The bench-document path is gone (benchmark/ is the ruler); its
		// flags must be rejected, not silently ignored.
		{"removed -bench-out", []string{"-bench-out", "x"}, 2, "flag provided but not defined: -bench-out"},
		{"removed -merge", []string{"-merge", "x"}, 2, "flag provided but not defined: -merge"},
		{"zero requests", []string{"-requests", "0"}, 1, "-requests must be positive, got 0"},
		{"zero verts", []string{"-verts", "0"}, 1, "-verts must be positive, got 0"},
		{"negative rate", []string{"-rate", "-1"}, 1, "-rate must be non-negative, got -1"},
		// NaN compares false with every bound: it used to turn the open
		// loop and both gates off without a word.
		{"NaN rate", []string{"-rate", "NaN"}, 1, "-rate must be non-negative, got NaN"},
		{"NaN min-qps", []string{"-min-qps", "NaN"}, 1, "-min-qps must be non-negative, got NaN"},
		{"negative min-qps", []string{"-min-qps", "-5"}, 1, "-min-qps must be non-negative, got -5"},
		{"infinite min-qps", []string{"-min-qps", "+Inf"}, 1, "-min-qps must be finite, got +Inf"},
		{"NaN max-p99-ms", []string{"-max-p99-ms", "NaN"}, 1, "-max-p99-ms must be non-negative, got NaN"},
		{"negative max-p99-ms", []string{"-max-p99-ms", "-1"}, 1, "-max-p99-ms must be non-negative, got -1"},
		{"infinite max-p99-ms", []string{"-max-p99-ms", "+Inf"}, 1, "-max-p99-ms must be finite, got +Inf"},
		// An interval that rounds to 0 ns used to reach time.NewTicker(0).
		{"rate above 1e9", []string{"-rate", "2e9"}, 1, "-rate 2e+09 is too high"},
		{"infinite rate", []string{"-rate", "+Inf"}, 1, "is too high"},
		{"zero concurrency", []string{"-concurrency", "0"}, 1, "-concurrency must be positive, got 0"},
		{"mix without weight", []string{"-mix", "predict"}, 1, `-mix: "predict" is not endpoint=weight`},
		{"mix unknown endpoint", []string{"-mix", "train=1"}, 1, `-mix: unknown endpoint "train"`},
		{"mix bad weight", []string{"-mix", "predict=-2"}, 1, `-mix: bad weight "-2"`},
		{"mix all zero", []string{"-mix", "predict=0"}, 1, "-mix: no endpoints with positive weight"},
		{"fanouts not a number", []string{"-fanouts", "4,x"}, 1, `-fanouts: bad entry "x"`},
		{"fanouts non-positive", []string{"-fanouts", "0"}, 1, `-fanouts: bad entry "0"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-addr", addr}, c.args...), &stdout, &stderr)
			if code != c.code {
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
	if n := dials.Load(); n != 0 {
		t.Fatalf("invalid invocations sent %d request(s)", n)
	}
}

// TestRunAgainstServer drives both loop modes against a real serving
// pipeline: the printed summary carries the client quantiles and the
// Server-Timing stage breakdown, and each absolute gate turns into exit 1.
func TestRunAgainstServer(t *testing.T) {
	ds := dataset.Load(dataset.Spec{
		Name: "nsload", Vertices: 80, AvgDegree: 6, FeatureDim: 10,
		NumClasses: 4, HiddenDim: 8, Gen: dataset.GenSBM, Homophily: 0.8, Seed: 19,
	})
	model := nn.MustNewModel(nn.GCN, []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}, 0, 91)
	srv, err := serve.New(serve.Config{
		Graph: ds.Graph, Features: ds.Features, Source: serve.NewStatic(model),
		CacheBytes: 1 << 20, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stdout []string
		stderr string
	}{
		{"closed loop", []string{"-requests", "40", "-concurrency", "2", "-min-qps", "1", "-max-p99-ms", "10000", "-min-cache-hits", "1"}, 0,
			[]string{"mode=closed requests=40 errors=0", "latency_ms p50=", "stage queue", "stage compute", "stage sum covers", "cache hits="}, ""},
		{"open loop", []string{"-requests", "20", "-rate", "2000"}, 0,
			[]string{"mode=open requests=20 errors=0"}, ""},
		{"sampled", []string{"-requests", "10", "-fanouts", "3,3"}, 0,
			[]string{"requests=10 errors=0"}, ""},
		{"fanouts do not match the model", []string{"-fanouts", "3"}, 1,
			nil, "-fanouts has 1 entries but the served model has 2 layers"},
		{"qps gate", []string{"-requests", "10", "-min-qps", "1e12"}, 1,
			[]string{"requests=10"}, "GATE qps"},
		{"p99 gate", []string{"-requests", "10", "-max-p99-ms", "1e-9"}, 1,
			[]string{"requests=10"}, "GATE p99"},
		{"cache gate", []string{"-requests", "10", "-min-cache-hits", "1000000"}, 1,
			[]string{"requests=10"}, "GATE cache hits"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-addr", addr, "-seed", "7"}, c.args...), &stdout, &stderr)
			if code != c.code {
				t.Errorf("exit %d, want %d\nstdout: %s\nstderr: %s", code, c.code, stdout.String(), stderr.String())
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout does not contain %q:\n%s", want, stdout.String())
				}
			}
			if !strings.Contains(stderr.String(), c.stderr) || (c.stderr == "" && stderr.Len() != 0) {
				t.Errorf("stderr %q, want it to contain %q", stderr.String(), c.stderr)
			}
		})
	}
}
