// Doc-to-code cross-checks (the -docs flag): markdown guides drift from the
// code silently, so two contracts are verified mechanically on every CI run.
//
//  1. Flag-to-doc: every value a document passes to -engine (nstrain) must
//     name a mode the engine actually registers (engine.ModeNames()). A doc
//     advertising `-engine hybrid5` fails the lint.
//  2. Metric-to-doc: inside regions bracketed by `<!-- doclint:bench-schema -->`
//     and `<!-- doclint:end -->`, every backticked lowercase token must be a
//     workload or metric name declared in BENCHMARK.json (workloads,
//     end_to_end, per_layer). A doc table describing a renamed or misspelled
//     benchmark metric fails the lint.
package main

import (
	"encoding/json"
	"fmt"
	"os"
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
)

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

// lintDoc runs both cross-checks over one markdown file's contents.
func lintDoc(path, content string, modes, names map[string]bool) []string {
	var problems []string
	lineOf := func(off int) int { return 1 + strings.Count(content[:off], "\n") }

	for _, m := range engineFlagRe.FindAllStringSubmatchIndex(content, -1) {
		if v := content[m[4]:m[5]]; !modes[v] {
			problems = append(problems, fmt.Sprintf(
				"%s:%d: policy %q is not a registered engine mode (have: %s)",
				path, lineOf(m[0]), v, strings.Join(engine.ModeNames(), ", ")))
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
	var problems []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		problems = append(problems, lintDoc(path, string(data), modes, names)...)
	}
	return problems, nil
}
