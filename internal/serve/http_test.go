package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
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

// TestHTTPNonFiniteIs500 serves a model with one infinite weight. Its
// embeddings and logits carry infinities and, through the link decoder, an
// infinity times zero is a NaN score. JSON has no form for either, so every
// query endpoint must answer 500 naming the value, not an empty 200.
func TestHTTPNonFiniteIs500(t *testing.T) {
	ds := testDataset(t, 80, 19)
	all := make([]int32, ds.Graph.NumVertices())
	for v := range all {
		all[v] = int32(v)
	}
	// Row i of layer 0's weight feeds hidden column 0 from feature i. Set to
	// +Inf, the column's ReLU is +Inf where the aggregated feature is
	// positive and 0 where it is negative: take the first i giving both.
	var s *Server
	inf, zero := -1, -1
	for i := 0; i < ds.Spec.FeatureDim && (inf < 0 || zero < 0); i++ {
		model := testModel(ds, nn.GCN, 91)
		model.Params()[0].Value.Set(i, 0, float32(math.Inf(1)))
		s = newTestServer(t, ds, NewStatic(model), 0)
		res, err := s.Query(&Request{Verts: all})
		if err != nil {
			t.Fatal(err)
		}
		inf, zero = -1, -1
		for v := range all {
			switch e := res.Embeds.At(v, 0); {
			case math.IsInf(float64(e), 1) && inf < 0:
				inf = v
			case e == 0 && zero < 0:
				zero = v
			}
		}
	}
	if inf < 0 || zero < 0 {
		t.Fatal("no feature gives a vertex pair with embedding column 0 at +Inf and at 0")
	}
	h := s.Handler()
	for _, c := range []struct{ path, body, names string }{
		{"/predict", fmt.Sprintf(`{"vertices":[%d]}`, inf), "Inf"},
		{"/embed", fmt.Sprintf(`{"vertices":[%d]}`, inf), "+Inf"},
		{"/linkscore", fmt.Sprintf(`{"pairs":[[%d,%d]]}`, inf, zero), "NaN"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), c.names) {
			t.Errorf("POST %s %s: status %d %q, want 500 naming %s", c.path, c.body, rec.Code, rec.Body.String(), c.names)
		}
		if rec.Header().Get("Server-Timing") != "" {
			t.Errorf("POST %s: a 500 carries timing headers", c.path)
		}
	}
}

// TestRowsEncodeLikeEncodingJSON holds the /predict and /embed bodies, which
// are appended straight from the result tensor, to json.Marshal of
// PredictResponse / EmbedResponse plus the newline Encode adds, byte for
// byte, and checks that decoding them gives back every float's bits. Values
// are random float32 over exponents ±30, signed zeros, subnormals and both
// sides of 1e-6 and 1e21, where encoding/json switches to exponent form;
// shapes include 1×k, k×1 and no rows at all.
func TestRowsEncodeLikeEncodingJSON(t *testing.T) {
	rng := tensor.NewRNG(27)
	special := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 123456.79,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 1.1754942e-38,
		math.Nextafter32(1e-6, 0), 1e-6, math.Nextafter32(1e-6, 1), -math.Nextafter32(1e-6, 0), -1e-6,
		math.Nextafter32(1e21, 0), 1e21, math.Nextafter32(1e21, 2e21), -1e21,
		math.MaxFloat32, -math.MaxFloat32,
	}
	value := func() float32 {
		if rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		v := float32((1 + 9*rng.Float64()) * math.Pow(10, float64(rng.Intn(61)-30)))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	versions := []uint64{0, 1, 7, math.MaxUint64}
	for _, shape := range [][2]int{{0, 3}, {1, 1}, {1, 9}, {9, 1}, {5, 4}, {32, 16}} {
		for trial := 0; trial < 20; trial++ {
			m := tensor.New(shape[0], shape[1])
			for i := range m.Data() {
				m.Data()[i] = value()
			}
			version := versions[trial%len(versions)]
			// Every other row written from the text a cache admission makes.
			texts := make([][]byte, m.Rows())
			var err error
			for r := 0; r < m.Rows(); r += 2 {
				if texts[r], err = appendRow(nil, "logits", r, m.Row(r)); err != nil {
					t.Fatal(err)
				}
			}
			rows := make([][]float32, m.Rows())
			labels := make([]int, m.Rows())
			for r := range rows {
				rows[r] = m.Row(r)
				for c, v := range rows[r] {
					if v > rows[r][labels[r]] {
						labels[r] = c
					}
				}
			}
			for _, c := range []struct {
				name string
				want any
				got  func([]byte) ([]byte, error)
				back func([]byte) ([][]float32, error)
			}{
				{"predict", PredictResponse{ModelVersion: version, Labels: labels, Logits: rows},
					func(b []byte) ([]byte, error) { return appendPredict(b, &Result{Version: version, Logits: m}) },
					func(b []byte) ([][]float32, error) {
						var out PredictResponse
						err := json.Unmarshal(b, &out)
						return out.Logits, err
					}},
				{"predict with cached texts", PredictResponse{ModelVersion: version, Labels: labels, Logits: rows},
					func(b []byte) ([]byte, error) {
						return appendPredict(b, &Result{Version: version, Logits: m, texts: texts})
					},
					func(b []byte) ([][]float32, error) {
						var out PredictResponse
						err := json.Unmarshal(b, &out)
						return out.Logits, err
					}},
				{"embed", EmbedResponse{ModelVersion: version, Embeddings: rows},
					func(b []byte) ([]byte, error) { return appendEmbed(b, &Result{Version: version, Embeds: m}) },
					func(b []byte) ([][]float32, error) {
						var out EmbedResponse
						err := json.Unmarshal(b, &out)
						return out.Embeddings, err
					}},
			} {
				want, err := json.Marshal(c.want)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, '\n')
				got, err := c.got([]byte("stale"))
				if err != nil {
					t.Fatal(err)
				}
				if got = got[len("stale"):]; !bytes.Equal(got, want) {
					t.Fatalf("%s %dx%d: body\n%s\nwant json.Marshal's\n%s", c.name, shape[0], shape[1], got, want)
				}
				back, err := c.back(got)
				if err != nil {
					t.Fatal(err)
				}
				for r := range rows {
					for col, v := range rows[r] {
						if math.Float32bits(back[r][col]) != math.Float32bits(v) {
							t.Fatalf("%s row %d col %d: decoded %v, encoded %v", c.name, r, col, back[r][col], v)
						}
					}
				}
			}
		}
	}
}
