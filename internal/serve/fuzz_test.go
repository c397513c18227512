package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neutronstar/internal/nn"
)

// FuzzRequestDecode posts arbitrary bodies to the three query endpoints. The
// JSON decoders and Query's validation are the only things between the
// network and the extraction/compute pools, so whatever arrives must either
// be answered (200) or rejected as the client's fault (400) — never a panic
// in a pool goroutine, never another status. The one exception is an answer
// JSON cannot carry: should a request's inductive features drive the forward
// pass past float32's range, the non-finite answer is a 500 that says so.
func FuzzRequestDecode(f *testing.F) {
	// Seed corpus: the bodies http_test.go sends, plus the sampled and
	// inductive request shapes and a few malformed ones.
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"vertices":[3,12]}`},
		{1, `{"vertices":[5]}`},
		{2, `{"pairs":[[1,2],[2,1],[4,4]]}`},
		{0, `{"vertices":[9999]}`},
		{0, `{"vertices":[3],"fanouts":[2,2],"seed":7}`},
		{0, `{"inductive":[{"features":[0,1,2,3,4,5,6,7,8,9],"neighbors":[1,2]}]}`},
		{2, `{"pairs":[[0,7]],"fanouts":[3],"seed":1}`},
		{0, `{"vertices":[-1]}`},
		{1, `{"vertices":`},
		{2, `{"pairs":[[1]]}`},
		{0, ``},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	ds := testDataset(f, 80, 19)
	h := newTestServer(f, ds, NewStatic(testModel(ds, nn.GCN, 91)), 1<<16).Handler()
	paths := []string{"/predict", "/embed", "/linkscore"}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		nonFinite := rec.Code == http.StatusInternalServerError &&
			strings.Contains(rec.Body.String(), "cannot encode the response")
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest && !nonFinite {
			t.Fatalf("POST %s %q: status %d, want 200 or 400", path, body, rec.Code)
		}
	})
}
