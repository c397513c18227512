package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Gathering turns the live registry into plain data: one SeriesSnapshot per
// labeled series, ordered by family name then label values. The metric
// history samples these into its ring buffer, and both exposition writers
// render them (the OpenMetrics one with exemplars) — every consumer wants a
// consistent point-in-time view without holding registry locks while it
// works.

// SeriesSnapshot is one series' instantaneous state. Counters and gauges
// carry Value; histograms carry Count/Sum plus the per-bucket breakdown
// (Buckets are non-cumulative, len(Upper)+1 with the +Inf bucket last) and
// any bucket exemplars. Upper aliases the family's bound slice, which is
// immutable after registration.
type SeriesSnapshot struct {
	Name        string
	Kind        string // "counter", "gauge" or "histogram"
	LabelNames  []string
	LabelValues []string
	Value       float64
	Count       uint64
	Sum         float64
	Upper       []float64
	Buckets     []uint64
	Exemplars   []*Exemplar
}

// Key identifies the series across snapshots: the family name plus the
// label values joined on a byte no label value may contain.
func (s *SeriesSnapshot) Key() string {
	if len(s.LabelValues) == 0 {
		return s.Name
	}
	return s.Name + "\xff" + strings.Join(s.LabelValues, "\xff")
}

// Labels renders the label set as a map (nil for an unlabeled series).
func (s *SeriesSnapshot) Labels() map[string]string {
	if len(s.LabelNames) == 0 {
		return nil
	}
	m := make(map[string]string, len(s.LabelNames))
	for i, n := range s.LabelNames {
		m[n] = s.LabelValues[i]
	}
	return m
}

// Quantile estimates the p-quantile of a histogram snapshot (0 for other
// kinds or an empty histogram), with the same interpolating estimator as
// Histogram.Quantile.
func (s *SeriesSnapshot) Quantile(p float64) float64 {
	if s.Kind != "histogram" {
		return 0
	}
	return bucketQuantile(s.Upper, s.Buckets, s.Sum, p)
}

// walk is the one traversal of the registry: families in name order, each
// visited with its series snapshotted in label-value order under the family
// lock (a family declared but never resolved visits with none). Gather and
// both exposition formats are views of it. Under concurrent updates each
// series is individually consistent (its values were loaded together), like
// any monitoring read.
func (r *Registry) walk(visit func(f *family, series []SeriesSnapshot)) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snaps := make([]SeriesSnapshot, 0, len(keys))
		for _, k := range keys {
			se := f.series[k]
			snap := SeriesSnapshot{
				Name:        f.name,
				Kind:        f.kind.String(),
				LabelNames:  f.labelNames,
				LabelValues: se.labelValues,
			}
			switch f.kind {
			case counterKind:
				snap.Value = se.c.Value()
			case gaugeKind:
				snap.Value = se.g.Value()
			case histogramKind:
				snap.Count = se.h.Count()
				snap.Sum = se.h.Sum()
				snap.Upper = se.h.upper
				snap.Buckets = se.h.bucketCounts()
				snap.Exemplars = se.h.Exemplars()
			}
			snaps = append(snaps, snap)
		}
		f.mu.Unlock()
		visit(f, snaps)
	}
}

// Gather snapshots every series in the registry, sorted by family name then
// label values.
func (r *Registry) Gather() []SeriesSnapshot {
	var out []SeriesSnapshot
	r.walk(func(_ *family, series []SeriesSnapshot) { out = append(out, series...) })
	return out
}

// WritePrometheus renders every family in text exposition format (version
// 0.0.4): families sorted by name with their HELP and TYPE lines (also for a
// family with no series yet), series sorted by label values, histograms
// expanded into cumulative _bucket/_sum/_count series with a trailing +Inf
// bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	r.walk(func(f *family, series []SeriesSnapshot) {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for i := range series {
			writeSeries(&b, &series[i], false)
		}
	})
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteOpenMetrics renders the registry in OpenMetrics 1.0 text format: like
// the classic exposition but with counter families declared under their base
// name (the _total suffix stays on the sample), bucket exemplars rendered as
// "# {trace_id=...} value timestamp" payloads, and a terminating # EOF line.
// Families with no series are left out. Exemplars are the reason this format
// exists here — they are not expressible in the 0.0.4 text format.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	var b strings.Builder
	r.walk(func(f *family, series []SeriesSnapshot) {
		if len(series) == 0 {
			return
		}
		base := f.name
		if f.kind == counterKind {
			base = strings.TrimSuffix(base, "_total")
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", base, f.kind)
		for i := range series {
			writeSeries(&b, &series[i], true)
		}
	})
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series' sample lines: one line for a counter or
// gauge; for a histogram the cumulative _bucket lines (+Inf last, carrying
// the bucket exemplars when exemplars is set), then _sum and _count.
func writeSeries(b *strings.Builder, s *SeriesSnapshot, exemplars bool) {
	if s.Kind != "histogram" {
		writeSample(b, s.Name, s.LabelNames, s.LabelValues, "", "", s.Value)
		return
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		le := "+Inf"
		if i < len(s.Upper) {
			le = formatFloat(s.Upper[i])
		}
		var ex *Exemplar
		if exemplars {
			ex = s.Exemplars[i]
		}
		writeExemplarSample(b, s.Name+"_bucket", s.LabelNames, s.LabelValues, le, float64(cum), ex)
	}
	writeSample(b, s.Name+"_sum", s.LabelNames, s.LabelValues, "", "", s.Sum)
	writeSample(b, s.Name+"_count", s.LabelNames, s.LabelValues, "", "", float64(s.Count))
}

// writeExemplarSample renders one _bucket line, appending the OpenMetrics
// exemplar payload when the bucket has one.
func writeExemplarSample(b *strings.Builder, name string, labelNames, labelValues []string, le string, v float64, ex *Exemplar) {
	if ex == nil {
		writeSample(b, name, labelNames, labelValues, "le", le, v)
		return
	}
	var line strings.Builder
	writeSample(&line, name, labelNames, labelValues, "le", le, v)
	s := strings.TrimSuffix(line.String(), "\n")
	fmt.Fprintf(b, "%s # {trace_id=%q} %s %.3f\n",
		s, ex.TraceID, formatFloat(ex.Value), float64(ex.UnixNano)/1e9)
}

// openMetricsContentType is the scrape content type of the OpenMetrics text
// format; textContentType is the classic 0.0.4 exposition.
const (
	openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
	textContentType        = "text/plain; version=0.0.4; charset=utf-8"
)

// MetricsHandler serves the registry as a /metrics endpoint with correct
// content negotiation: scrapers that accept application/openmetrics-text get
// the OpenMetrics rendering (which carries histogram exemplars), everything
// else gets the classic text format under its proper versioned content type.
// A nil registry serves Default(). Both the obs debug server and the serving
// HTTP API mount this handler, so every process exposes metrics identically.
func MetricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			reg = Default()
		}
		if acceptsOpenMetrics(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", openMetricsContentType)
			_ = reg.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", textContentType)
		_ = reg.WritePrometheus(w)
	}
}

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics text format (parameters like version are ignored).
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mt) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}
