package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"neutronstar/internal/nn"
)

// predictCase is a served GCN over a 2 000-vertex graph and the /predict
// body of one 32-vertex request, the shape serve-mix sends. cacheBytes <= 0
// serves without the embedding cache.
func predictCase(tb testing.TB, cacheBytes int64) (http.Handler, []byte) {
	tb.Helper()
	ds := testDataset(tb, 2000, 61)
	s := newTestServer(tb, ds, NewStatic(testModel(ds, nn.GCN, 62)), cacheBytes)
	body := []byte(`{"vertices":[`)
	for i := 0; i < 32; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(i*61%2000), 10)
	}
	return s.Handler(), append(body, "]}"...)
}

// postPredict drives one request through the handler, fails on anything
// but a 200 and returns the response.
func postPredict(tb testing.TB, h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("/predict: status %d %q", rec.Code, rec.Body.String())
	}
	return rec
}

// TestPredictHandlerAllocs bounds what one /predict request allocates,
// counted across the handler and both pools. The bounds are measured counts
// plus headroom (linux/amd64, go1.24): hot — the repeat request answered
// from the cache without the pipeline, 52 — and without a cache the count
// the sort-and-binary-search walk with the indenting encoder measured, 173.
// Gated behind NS_PERF_ALLOCS like the other alloc budgets (meaningless
// under -race).
func TestPredictHandlerAllocs(t *testing.T) {
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	for _, c := range []struct {
		name       string
		cacheBytes int64
		max        float64
	}{
		{"hot", 1 << 20, 57},
		{"no-cache", 0, 173},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, body := predictCase(t, c.cacheBytes)
			postPredict(t, h, body)
			got := testing.AllocsPerRun(200, func() { postPredict(t, h, body) })
			t.Logf("%s: %.0f allocations per request (bound %.0f)", c.name, got, c.max)
			if got > c.max {
				t.Fatalf("%s: %.0f allocations per /predict request, want <= %.0f", c.name, got, c.max)
			}
		})
	}
}

// BenchmarkPredictHandler times one /predict request through the handler:
// hot, answered from the cache, and without a cache, through the batcher and
// both pools.
func BenchmarkPredictHandler(b *testing.B) {
	for _, c := range []struct {
		name       string
		cacheBytes int64
	}{{"hot", 1 << 20}, {"no-cache", 0}} {
		b.Run(c.name, func(b *testing.B) {
			h, body := predictCase(b, c.cacheBytes)
			postPredict(b, h, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postPredict(b, h, body)
			}
		})
	}
}
