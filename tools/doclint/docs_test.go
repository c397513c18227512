package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// repoManifest is BENCHMARK.json as seen from this package's directory.
const repoManifest = "../../" + manifestPath

// changesEntryBudget bounds one CHANGES.md entry, in characters: an entry
// names what changed, the claim with its pair counts, and every test, CI and
// lint change; measurement detail belongs in the commit message.
const changesEntryBudget = 1500

// Whole-file budgets for the two documents every reader starts from:
// CHANGES.md in bytes, DESIGN.md in lines.
const (
	changesByteBudget = 35000
	designLineBudget  = 1400
)

// testFamilies stands in for the registered metric families.
var testFamilies = map[string]bool{
	"ns_ckpt_saves_total": true, "ns_ckpt_restores_total": true,
	"ns_comm_fault_dropped_total": true, "ns_comm_fault_duplicated_total": true,
	"ns_tensor_pool_hits_total": true,
}

func lintSnippet(t *testing.T, content string) []string {
	t.Helper()
	names, err := benchNameSet(repoManifest)
	if err != nil {
		t.Fatal(err)
	}
	return lintDoc("doc.md", content, modeNameSet(), names, testFamilies)
}

func TestDocFamilyCheck(t *testing.T) {
	// Code blocks are not backticked tokens, so a grep pattern is free.
	clean := "`ns_ckpt_{saves,restores}_total`, `ns_comm_fault_{dropped,duplicated}_total{kind}`,\n" +
		"`ns_tensor_pool_*` and the template `ns_<subsystem>_<name>_<unit>`;\n" +
		"```sh\ncurl -s :8080/metrics | grep ns_gone_total\n```\n"
	if ps := lintSnippet(t, clean); len(ps) != 0 {
		t.Fatalf("clean doc flagged: %v", ps)
	}
	for _, c := range []struct{ doc, name string }{
		{"`ns_tensor_matmul_seconds{op}`", "ns_tensor_matmul_seconds"},
		{"`ns_ckpt_{saves,save_failures}_total`", "ns_ckpt_save_failures_total"},
		{"`ns_autograd_*`", "ns_autograd_*"},
	} {
		ps := lintSnippet(t, "see "+c.doc+" here\n")
		if len(ps) != 1 || !strings.Contains(ps[0], "("+c.name+")") || !strings.HasPrefix(ps[0], "doc.md:1:") {
			t.Fatalf("%s: want one problem naming %s, got %v", c.doc, c.name, ps)
		}
	}
}

func TestFamilyNameSetReadsRegistrations(t *testing.T) {
	families, err := familyNameSet("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{
		"ns_serve_batcher_queue_depth", // Gauge, registered on a server's own registry
		"ns_comm_fault_dropped_total",  // CounterVec
		"ns_serve_stage_seconds",       // HistogramVec
		"ns_comm_message_bytes",        // Histogram
	} {
		if !families[n] {
			t.Fatalf("family set is missing %q", n)
		}
	}
	// Registered only in tests, or read by name without registering.
	if families["ns_a_total"] || families["ns_srv_hits_total"] || len(families) > 60 {
		t.Fatalf("family set holds names no non-test code registers (%d names)", len(families))
	}
}

func TestDocPolicyCheckAcceptsRegisteredModes(t *testing.T) {
	clean := "Run `nstrain -engine hybrid3` or `nstrain -engine=deprep -trace t.json`; per-engine prose is not a flag.\n"
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

// TestChangesEntriesFitBudget fails when a top-level "- " entry of
// CHANGES.md, with any indented continuation lines, is over
// changesEntryBudget characters.
func TestChangesEntriesFitBudget(t *testing.T) {
	data, err := os.ReadFile("../../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	var entry string
	start := 0
	check := func() {
		if n := utf8.RuneCountInString(entry); n > changesEntryBudget {
			t.Errorf("CHANGES.md:%d: entry is %d characters, over %d: %.60s…", start, n, changesEntryBudget, entry)
		}
		entry = ""
	}
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "- "):
			check()
			entry, start = line, i+1
		case entry != "" && strings.HasPrefix(line, " "):
			entry += "\n" + line
		default:
			check()
		}
	}
	check()
}

// TestDocsFitBudget fails when CHANGES.md is over changesByteBudget bytes or
// DESIGN.md over designLineBudget lines.
func TestDocsFitBudget(t *testing.T) {
	changes, err := os.ReadFile("../../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(changes); n > changesByteBudget {
		t.Errorf("CHANGES.md is %d bytes, over %d", n, changesByteBudget)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(design), "\n"); n > designLineBudget {
		t.Errorf("DESIGN.md is %d lines, over %d", n, designLineBudget)
	}
}

var (
	// designSectionRe matches a numbered top-level heading of DESIGN.md.
	designSectionRe = regexp.MustCompile(`(?m)^## (\d+)\.`)
	// designCiteRe matches a citation of DESIGN.md sections: "DESIGN §9",
	// "DESIGN.md §12", "DESIGN.md §5/§14/§15".
	designCiteRe = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+(?:/§\d+)*)`)
)

// TestDesignCitationsResolve fails when a tracked .go, .s, .yml or .md file
// cites a DESIGN.md section that has no "## N." heading, so renumbering the
// document cannot leave a citation pointing at the wrong section.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool)
	for _, m := range designSectionRe.FindAllStringSubmatch(string(design), -1) {
		have[m[1]] = true
	}
	cmd := exec.Command("git", "ls-files", "*.go", "*.s", "*.yml", "*.md")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Skipf("tracked files are listed by git, which failed here: %v", err)
	}
	cited := 0
	for _, path := range strings.Fields(string(out)) {
		data, err := os.ReadFile(filepath.Join("../..", path))
		if err != nil {
			t.Fatal(err)
		}
		content := string(data)
		for _, m := range designCiteRe.FindAllStringSubmatchIndex(content, -1) {
			for _, sec := range strings.Split(content[m[2]:m[3]], "/§") {
				cited++
				if !have[sec] {
					t.Errorf("%s:%d: cites DESIGN §%s, which DESIGN.md has no \"## %s.\" heading for",
						path, 1+strings.Count(content[:m[0]], "\n"), sec, sec)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no DESIGN citation found: the pattern no longer matches how the files cite it")
	}
}
