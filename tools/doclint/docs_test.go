package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// repoManifest is BENCHMARK.json as seen from this package's directory.
const repoManifest = "../../" + manifestPath

func lintSnippet(t *testing.T, content string) []string {
	t.Helper()
	names, err := benchNameSet(repoManifest)
	if err != nil {
		t.Fatal(err)
	}
	return lintDoc("doc.md", content, modeNameSet(), names)
}

func TestDocPolicyCheckAcceptsRegisteredModes(t *testing.T) {
	clean := "Run `nstrain -engine hybrid3` or `nstrain -engine=deprep -critpath`; per-engine prose is not a flag.\n"
	if ps := lintSnippet(t, clean); len(ps) != 0 {
		t.Fatalf("clean doc flagged: %v", ps)
	}
}

func TestDocPolicyCheckFlagsUnknownMode(t *testing.T) {
	ps := lintSnippet(t, "Use `-engine hybrid5` for the 5-way planner.\n")
	if len(ps) != 1 || !strings.Contains(ps[0], `"hybrid5"`) {
		t.Fatalf("want one hybrid5 problem, got %v", ps)
	}
}

func TestDocSchemaCheckValidatesMarkedRegions(t *testing.T) {
	clean := "intro `not_a_metric` unchecked outside markers\n" +
		"<!-- doclint:bench-schema -->\n" +
		"| `train-compute` | `op_ms_p50` | `engine.critpath_comm_share` |\n" +
		"| `serve-mix` | `serve.queue_ms_mean.hot` | see `benchmark/README.md` and `BENCHMARK.json` |\n" +
		"<!-- doclint:end -->\n"
	if ps := lintSnippet(t, clean); len(ps) != 0 {
		t.Fatalf("valid region flagged: %v", ps)
	}
	bad := "<!-- doclint:bench-schema -->\n`op_ms_p51` is the median.\n<!-- doclint:end -->\n"
	ps := lintSnippet(t, bad)
	if len(ps) != 1 || !strings.Contains(ps[0], "op_ms_p51") {
		t.Fatalf("want one op_ms_p51 problem, got %v", ps)
	}
}

func TestDocSchemaCheckFlagsUnbalancedMarkers(t *testing.T) {
	ps := lintSnippet(t, "<!-- doclint:bench-schema -->\n`setup_s`\n")
	if len(ps) != 1 || !strings.Contains(ps[0], "marker") {
		t.Fatalf("want one marker problem, got %v", ps)
	}
}

func TestBenchNameSetReadsAllThreeLists(t *testing.T) {
	names, err := benchNameSet(repoManifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{
		"train-hybrid-gat",        // workloads
		"peak_rss_mb",             // end_to_end
		"hybrid.regret",           // per_layer
		"serve.cache_ms_mean.hot", // per_layer, two dots
	} {
		if !names[n] {
			t.Fatalf("name set is missing %q", n)
		}
	}
	if names["not_a_metric"] || names["bound"] || names["ms"] {
		t.Fatal("name set contains something that is not a declared name")
	}

	if _, err := benchNameSet(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("a missing manifest is not an error")
	}
}
