package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHTTPEndpoints(t *testing.T) {
	ds := testDataset(t, 80, 19)
	model := testModel(ds, nn.GCN, 91)
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features, Source: NewStatic(model),
		CacheBytes: 1 << 20, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var pred PredictResponse
	resp := postJSON(t, ts.URL+"/predict", Request{Verts: []int32{3, 12}}, &pred)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict status %d", resp.StatusCode)
	}
	if len(pred.Labels) != 2 || len(pred.Logits) != 2 {
		t.Fatalf("predict shape: %+v", pred)
	}
	ref := engine.ReferenceForward(ds.Graph, model, ds.Features)
	for c, v := range pred.Logits[0] {
		if v != ref.At(3, c) {
			t.Fatalf("logit[0][%d] = %v, reference %v", c, v, ref.At(3, c))
		}
	}

	var emb EmbedResponse
	postJSON(t, ts.URL+"/embed", Request{Verts: []int32{5}}, &emb)
	if len(emb.Embeddings) != 1 || len(emb.Embeddings[0]) != ds.Spec.HiddenDim {
		t.Fatalf("embed shape: %+v", emb)
	}

	var link LinkResponse
	postJSON(t, ts.URL+"/linkscore", LinkRequest{Pairs: [][2]int32{{1, 2}, {2, 1}, {4, 4}}}, &link)
	if len(link.Scores) != 3 {
		t.Fatalf("linkscore shape: %+v", link)
	}
	if link.Scores[0] != link.Scores[1] {
		t.Fatalf("dot-product score not symmetric: %v vs %v", link.Scores[0], link.Scores[1])
	}
	for _, sc := range link.Scores {
		if sc <= 0 || sc >= 1 {
			t.Fatalf("score %v outside (0,1)", sc)
		}
	}

	if resp := postJSON(t, ts.URL+"/predict", Request{Verts: []int32{9999}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range vertex: status %d", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/predict"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: %v %v", resp.StatusCode, err)
	}

	var st Stats
	if resp, err := http.Get(ts.URL + "/stats"); err != nil {
		t.Fatal(err)
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if st.Requests == 0 || st.Layers != 2 {
		t.Fatalf("stats: %+v", st)
	}

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", resp, err)
	}
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body), "ns_serve_requests_total") {
		t.Fatalf("/metrics missing serve counters:\n%s", body)
	}
}

// TestHTTPRequestBodyBounded sends each query endpoint a well-formed body
// that runs past maxRequestBytes: the decoder must stop at the limit and the
// client gets 400, not an answer. A normal request still answers after.
func TestHTTPRequestBodyBounded(t *testing.T) {
	ds := testDataset(t, 80, 19)
	h := newTestServer(t, ds, NewStatic(testModel(ds, nn.GCN, 91)), 0).Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	for _, c := range []struct{ path, open, item, close string }{
		{"/predict", `{"vertices":[`, `0,`, `0]}`},
		{"/embed", `{"vertices":[`, `0,`, `0]}`},
		{"/linkscore", `{"pairs":[`, `[0,1],`, `[0,1]]}`},
	} {
		body := []byte(c.open)
		body = append(body, bytes.Repeat([]byte(c.item), maxRequestBytes/len(c.item)+1)...)
		body = append(body, c.close...)
		rec := post(c.path, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
			t.Fatalf("POST %s with a %d-byte body: status %d %q, want 400 too large",
				c.path, len(body), rec.Code, rec.Body.String())
		}
	}
	if rec := post("/predict", []byte(`{"vertices":[3,12]}`)); rec.Code != http.StatusOK {
		t.Fatalf("normal request after over-limit ones: status %d %q", rec.Code, rec.Body.String())
	}
}
