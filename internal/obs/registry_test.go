package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ns_test_events_total", "events")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if c.Value() != 3.5 {
		t.Fatalf("counter = %v", c.Value())
	}
	g := r.Gauge("ns_test_temp", "temp")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	// Nil receivers are no-ops.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Fatal("nil metric recorded")
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ns_test_x_total", "x")
	b := r.Counter("ns_test_x_total", "x")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliases diverged")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch should panic")
		}
	}()
	r.Gauge("ns_test_x_total", "x")
}

func TestLabelCardinality(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ns_test_bytes_total", "bytes", "peer")
	v.With("0").Add(10)
	v.With("1").Add(20)
	v.With("0").Add(5)
	if got := v.With("0").Value(); got != 15 {
		t.Fatalf("peer 0 = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count should panic")
		}
	}()
	v.With("a", "b")
}

// TestPrometheusGolden validates the full exposition output: HELP/TYPE
// lines, label ordering and escaping, the histogram _bucket/_sum/_count
// expansion with a trailing +Inf bucket, and a declared family no series
// has been resolved in yet (its HELP and TYPE still appear).
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("ns_a_total", "Counts \"a\" events.\nSecond line.", "kind", "peer")
	cv.With("rep", "1").Add(3)
	cv.With(`we"ird\value`, "0").Inc()
	r.Gauge("ns_b_ratio", "A ratio.").Set(0.25)
	h := r.Histogram("ns_c_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)
	r.CounterVec("ns_d_total", "Declared, never resolved.", "reason")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ns_a_total Counts "a" events.\nSecond line.
# TYPE ns_a_total counter
ns_a_total{kind="rep",peer="1"} 3
ns_a_total{kind="we\"ird\\value",peer="0"} 1
# HELP ns_b_ratio A ratio.
# TYPE ns_b_ratio gauge
ns_b_ratio 0.25
# HELP ns_c_seconds Latency.
# TYPE ns_c_seconds histogram
ns_c_seconds_bucket{le="0.1"} 1
ns_c_seconds_bucket{le="1"} 3
ns_c_seconds_bucket{le="+Inf"} 4
ns_c_seconds_sum 6.05
ns_c_seconds_count 4
# HELP ns_d_total Declared, never resolved.
# TYPE ns_d_total counter
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ns_h_seconds", "h", []float64{0.001, 0.01, 0.1})
	vals := []float64{0.0005, 0.001, 0.005, 0.05, 0.5, 2}
	var sum float64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-sum) > 1e-12 {
		t.Fatalf("sum = %v want %v", h.Sum(), sum)
	}
	// Boundary values are inclusive: 0.001 lands in the le="0.001" bucket.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`ns_h_seconds_bucket{le="0.001"} 2`,
		`ns_h_seconds_bucket{le="0.01"} 3`,
		`ns_h_seconds_bucket{le="0.1"} 4`,
		`ns_h_seconds_bucket{le="+Inf"} 6`,
		`ns_h_seconds_count 6`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	e := ExpBuckets(1, 2, 4)
	if len(e) != 4 || e[0] != 1 || e[3] != 8 {
		t.Fatalf("ExpBuckets = %v", e)
	}
	l := LinearBuckets(0, 5, 3)
	if len(l) != 3 || l[2] != 10 {
		t.Fatalf("LinearBuckets = %v", l)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ns_conc_total", "c", "w")
	h := r.Histogram("ns_conc_seconds", "h", TimeBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.With(string(rune('0' + w))).Inc()
				h.Observe(float64(i) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for w := 0; w < 8; w++ {
		total += v.With(string(rune('0' + w))).Value()
	}
	if total != 1600 || h.Count() != 1600 {
		t.Fatalf("total = %v, hist count = %d", total, h.Count())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}
