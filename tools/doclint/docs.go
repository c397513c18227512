// Doc-to-code cross-checks (the -docs flag): markdown guides drift from the
// code silently, so three contracts are verified mechanically on every CI run.
//
//  1. Flag-to-doc: every value a document passes to -engine (nstrain) must
//     name a mode the engine actually registers (engine.ModeNames()). A doc
//     advertising `-engine hybrid5` fails the lint.
//  2. Metric-to-doc: inside regions bracketed by `<!-- doclint:bench-schema -->`
//     and `<!-- doclint:end -->`, every backticked lowercase token must be a
//     workload or metric name declared in BENCHMARK.json (workloads,
//     end_to_end, per_layer). A doc table describing a renamed or misspelled
//     benchmark metric fails the lint.
//  3. Family-to-doc: every backticked `ns_…` token must name a metric family
//     registered in non-test Go. Brace alternations expand
//     (`ns_serve_cache_{hits,misses}_total` is two names), a trailing brace
//     group without a comma is a label set (`ns_comm_fault_dropped_total{kind}`), a
//     trailing `*` matches any family with that prefix, and a `<…>`
//     placeholder marks a naming template, not a name. A doc still listing a
//     deleted family fails the lint.
package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"neutronstar/internal/engine"
)

// manifestPath is the benchmark manifest, relative to the repository root
// the lint is run from (like the -docs paths).
const manifestPath = "BENCHMARK.json"

var (
	// engineFlagRe captures the value handed to -engine in doc prose and
	// code blocks: `-engine hybrid3`. The leading guard keeps hyphenated
	// prose ("cross-engine equivalence") from matching: a flag's dash is
	// never preceded by a word character.
	engineFlagRe = regexp.MustCompile("(^|[^A-Za-z0-9])-engine[ =]([a-z0-9]+)")
	// schemaOpenRe / schemaCloseRe bracket a name-checked region.
	schemaOpenRe  = regexp.MustCompile(`<!--\s*doclint:bench-schema\s*-->`)
	schemaCloseRe = regexp.MustCompile(`<!--\s*doclint:end\s*-->`)
	// backtickTokenRe matches a backticked token shaped like a workload or
	// metric name (`train-comm`, `op_ms_p50`, `serve.queue_ms_mean.hot`).
	backtickTokenRe = regexp.MustCompile("`([a-z][a-z0-9_.-]*)`")
	// familyTokenRe matches a backticked metric family reference.
	familyTokenRe = regexp.MustCompile("`(ns_[^`\\s]*)`")
	// registrationRe matches a registry constructor call on a literal family
	// name: reg.Counter("ns_…", …), obs.Default().HistogramVec("ns_…", …).
	registrationRe = regexp.MustCompile(`\.(?:Counter|Gauge|Histogram)(?:Vec)?\(\s*"(ns_[a-z0-9_]+)"`)
)

// familyNameSet collects every metric family registered in the non-test Go
// files under root.
func familyNameSet(root string) (map[string]bool, error) {
	set := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range registrationRe.FindAllSubmatch(src, -1) {
			set[string(m[1])] = true
		}
		return nil
	})
	return set, err
}

// expandFamilyToken turns a doc's family reference into the names it stands
// for: brace alternations expanded, a trailing label set dropped. A trailing
// "*" is kept for the caller to match as a prefix.
func expandFamilyToken(tok string) []string {
	if i := strings.LastIndexByte(tok, '{'); i >= 0 && strings.HasSuffix(tok, "}") &&
		!strings.Contains(tok[i:], ",") {
		tok = tok[:i]
	}
	i := strings.IndexByte(tok, '{')
	j := strings.IndexByte(tok, '}')
	if i < 0 || j < i {
		return []string{tok}
	}
	var out []string
	for _, alt := range strings.Split(tok[i+1:j], ",") {
		for _, rest := range expandFamilyToken(tok[j+1:]) {
			out = append(out, tok[:i]+alt+rest)
		}
	}
	return out
}

// familyKnown reports whether name (or, ending in "*", a prefix) names a
// registered family.
func familyKnown(name string, families map[string]bool) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	if !wild {
		return families[name]
	}
	for f := range families {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// modeNameSet indexes engine.ModeNames() for membership checks.
func modeNameSet() map[string]bool {
	set := make(map[string]bool)
	for _, m := range engine.ModeNames() {
		set[m] = true
	}
	return set
}

// benchNameSet reads the benchmark manifest and collects every workload,
// end-to-end metric and per-layer metric name it declares.
func benchNameSet(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type named struct {
		Name string `json:"name"`
	}
	var manifest struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := make(map[string]bool)
	for _, list := range [][]named{manifest.Workloads, manifest.EndToEnd, manifest.PerLayer} {
		for _, n := range list {
			set[n.Name] = true
		}
	}
	return set, nil
}

// lintDoc runs the three cross-checks over one markdown file's contents.
func lintDoc(path, content string, modes, names, families map[string]bool) []string {
	var problems []string
	lineOf := func(off int) int { return 1 + strings.Count(content[:off], "\n") }

	for _, m := range engineFlagRe.FindAllStringSubmatchIndex(content, -1) {
		if v := content[m[4]:m[5]]; !modes[v] {
			problems = append(problems, fmt.Sprintf(
				"%s:%d: policy %q is not a registered engine mode (have: %s)",
				path, lineOf(m[0]), v, strings.Join(engine.ModeNames(), ", ")))
		}
	}

	for _, m := range familyTokenRe.FindAllStringSubmatchIndex(content, -1) {
		tok := content[m[2]:m[3]]
		if strings.Contains(tok, "<") {
			continue
		}
		for _, name := range expandFamilyToken(tok) {
			if !familyKnown(name, families) {
				problems = append(problems, fmt.Sprintf(
					"%s:%d: `%s` names no metric family registered in non-test Go (%s)",
					path, lineOf(m[0]), tok, name))
			}
		}
	}

	opens := schemaOpenRe.FindAllStringIndex(content, -1)
	closes := schemaCloseRe.FindAllStringIndex(content, -1)
	if len(opens) != len(closes) {
		return append(problems, fmt.Sprintf(
			"%s: %d doclint:bench-schema marker(s) but %d doclint:end marker(s)",
			path, len(opens), len(closes)))
	}
	for i, open := range opens {
		close := closes[i]
		if close[0] < open[1] {
			problems = append(problems, fmt.Sprintf(
				"%s:%d: doclint:end before its doclint:bench-schema", path, lineOf(close[0])))
			continue
		}
		region := content[open[1]:close[0]]
		for _, t := range backtickTokenRe.FindAllStringSubmatchIndex(region, -1) {
			tok := region[t[2]:t[3]]
			if !names[tok] {
				problems = append(problems, fmt.Sprintf(
					"%s:%d: `%s` is not a workload or metric name in %s",
					path, lineOf(open[1]+t[0]), tok, manifestPath))
			}
		}
	}
	return problems
}

// lintDocs runs the cross-checks over every named markdown file.
func lintDocs(paths []string) ([]string, error) {
	modes := modeNameSet()
	names, err := benchNameSet(manifestPath)
	if err != nil {
		return nil, err
	}
	families, err := familyNameSet(".")
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		problems = append(problems, lintDoc(path, string(data), modes, names, families)...)
	}
	return problems, nil
}
