package experiments

import (
	"math"
	"sort"
	"time"

	"neutronstar/internal/obs"
)

// The utilisation view of a run's tracer (paper §5.4, Figure 13): busy
// totals and time-bucketed series of its class-bearing spans — the worker
// clocks' intervals classed by obs.Stage.Class, and the sampling baseline's
// spans — plus the network-rate curve of the fabric's delivery stamps.
// Structural spans (epochs, layers, ring steps — obs.ClassNone) organise the
// trace without perturbing the series.

// numClasses bounds the busy classes: compute, comm and sample.
const numClasses = obs.ClassSample + 1

// busyClass reports whether a span carries a busy class.
func busyClass(sp obs.SpanData) bool { return sp.Class >= 0 && sp.Class < numClasses }

// busy returns the total busy time of the given class summed over workers.
func busy(tr *obs.Tracer, class int) time.Duration {
	var total time.Duration
	for _, sp := range tr.Snapshot() {
		if sp.Class == class && busyClass(sp) {
			total += sp.Duration()
		}
	}
	return total
}

// recvBytes returns the wire bytes of every delivery stamp.
func recvBytes(tr *obs.Tracer) int64 {
	var n int64
	for _, d := range tr.Deliveries() {
		n += d.Bytes
	}
	return n
}

// series is a time-bucketed utilisation report.
type series struct {
	bucket time.Duration
	// util[class][b] is the mean fraction (0..1, can exceed 1 when a
	// background sender overlaps compute) of bucket b that workers spent in
	// that class.
	util [][]float64
	// netBytesPerSec[b] is the receive rate during bucket b.
	netBytesPerSec []float64
}

// numBuckets returns the series length.
func (s *series) numBuckets() int { return len(s.netBytesPerSec) }

// buildSeries buckets a tracer's busy spans and delivery stamps into fixed
// windows across numWorkers workers. A nil tracer yields no buckets; an empty
// one a single all-zero bucket. Zero-duration spans contribute nothing (the
// per-bucket overlap hi-lo is empty), but still extend the series end.
func buildSeries(tr *obs.Tracer, bucket time.Duration, numWorkers int) *series {
	if tr == nil || numWorkers == 0 {
		return &series{bucket: bucket, util: make([][]float64, numClasses)}
	}
	spans := tr.Snapshot()
	stamps := tr.Deliveries()

	var end time.Duration
	for _, sp := range spans {
		if busyClass(sp) && sp.End > end {
			end = sp.End
		}
	}
	for _, st := range stamps {
		if st.At > end {
			end = st.At
		}
	}
	n := int(end/bucket) + 1
	s := &series{bucket: bucket, util: make([][]float64, numClasses), netBytesPerSec: make([]float64, n)}
	for k := range s.util {
		s.util[k] = make([]float64, n)
	}
	for _, sp := range spans {
		if !busyClass(sp) {
			continue
		}
		for b := int(sp.Start / bucket); b <= int(sp.End/bucket) && b < n; b++ {
			lo := max(sp.Start, time.Duration(b)*bucket)
			hi := min(sp.End, time.Duration(b+1)*bucket)
			if hi > lo {
				s.util[sp.Class][b] += float64(hi-lo) / float64(bucket) / float64(numWorkers)
			}
		}
	}
	for _, st := range stamps {
		if b := int(st.At / bucket); b < n {
			s.netBytesPerSec[b] += float64(st.Bytes) / bucket.Seconds()
		}
	}
	return s
}

// meanUtil returns the mean utilisation of a class across the buckets.
func (s *series) meanUtil(class int) float64 {
	u := s.util[class]
	if len(u) == 0 {
		return 0
	}
	var sum float64
	for _, v := range u {
		sum += v
	}
	return sum / float64(len(u))
}

// peakNetRate returns the maximum receive rate over the series.
func (s *series) peakNetRate() float64 {
	var m float64
	for _, v := range s.netBytesPerSec {
		m = max(m, v)
	}
	return m
}

// smoothnessCV returns the coefficient of variation of the non-zero network
// rate buckets: lower means the bandwidth curve is smoother (the quality the
// paper attributes to ring scheduling in Fig 13c).
func (s *series) smoothnessCV() float64 {
	var vals []float64
	for _, v := range s.netBytesPerSec {
		if v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		return 0
	}
	sort.Float64s(vals)
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var varSum float64
	for _, v := range vals {
		varSum += float64((v - mean) * (v - mean))
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(varSum/float64(len(vals))) / mean
}
