package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// Handler returns the serving HTTP API:
//
//	POST /predict    Request JSON -> per-query argmax labels + logit rows
//	POST /embed      Request JSON -> per-query penultimate-layer embeddings
//	POST /linkscore  pairs of vertices -> sigmoid(dot) link scores
//	GET  /stats      live Stats JSON
//	GET  /healthz    200 "ok" liveness probe
//	GET  /metrics    registry exposition (classic text or OpenMetrics with
//	                 exemplars, negotiated via Accept)
//
// Query responses carry the request's per-stage latency breakdown on a
// Server-Timing header (queue/cache/extract/compute/total, milliseconds) and
// the pipeline trace id on X-NS-Trace-Id — response bodies are unchanged, so
// existing clients are unaffected while nsload and browsers get the
// breakdown for free.
//
// /metrics and /healthz mirror the obs debug server's endpoints so the same
// scrape configs work against a serving process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/embed", s.handleEmbed)
	mux.HandleFunc("/linkscore", s.handleLinkScore)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", obs.MetricsHandler(s.cfg.Registry))
	return mux
}

// setTimingHeaders attaches a completed query's stage breakdown to the
// response. Must run before the first body write.
func setTimingHeaders(h http.Header, t StageTiming) {
	h.Set("Server-Timing", t.ServerTiming())
	h.Set("X-NS-Trace-Id", t.TraceIDHex())
}

// PredictResponse answers /predict.
type PredictResponse struct {
	ModelVersion uint64      `json:"model_version"`
	Labels       []int       `json:"labels"`
	Logits       [][]float32 `json:"logits"`
}

// EmbedResponse answers /embed.
type EmbedResponse struct {
	ModelVersion uint64      `json:"model_version"`
	Embeddings   [][]float32 `json:"embeddings"`
}

// LinkRequest asks /linkscore for edge-existence scores: score k is
// sigmoid(dot(embed(Pairs[k][0]), embed(Pairs[k][1]))), the decoder the link
// prediction example trains against.
type LinkRequest struct {
	Pairs   [][2]int32 `json:"pairs"`
	Fanouts []int      `json:"fanouts,omitempty"`
	Seed    uint64     `json:"seed,omitempty"`
}

// LinkResponse answers /linkscore.
type LinkResponse struct {
	ModelVersion uint64    `json:"model_version"`
	Scores       []float64 `json:"scores"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Query(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := PredictResponse{
		ModelVersion: res.Version,
		Labels:       argmaxRows(res.Logits),
		Logits:       copyRows(res.Logits),
	}
	setTimingHeaders(w.Header(), res.Timing)
	writeJSON(w, out)
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Query(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	setTimingHeaders(w.Header(), res.Timing)
	writeJSON(w, EmbedResponse{ModelVersion: res.Version, Embeddings: copyRows(res.Embeds)})
}

func (s *Server) handleLinkScore(w http.ResponseWriter, r *http.Request) {
	var lr LinkRequest
	if !decodeBody(w, r, &lr) {
		return
	}
	if len(lr.Pairs) == 0 {
		http.Error(w, "serve: empty pairs", http.StatusBadRequest)
		return
	}
	// Query each distinct endpoint once; score from the embedding rows.
	pos := make(map[int32]int)
	var verts []int32
	for _, p := range lr.Pairs {
		for _, v := range p {
			if _, ok := pos[v]; !ok {
				pos[v] = len(verts)
				verts = append(verts, v)
			}
		}
	}
	res, err := s.Query(&Request{Verts: verts, Fanouts: lr.Fanouts, Seed: lr.Seed})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	setTimingHeaders(w.Header(), res.Timing)
	out := LinkResponse{ModelVersion: res.Version, Scores: make([]float64, len(lr.Pairs))}
	for k, p := range lr.Pairs {
		a, b := res.Embeds.Row(pos[p[0]]), res.Embeds.Row(pos[p[1]])
		var dot float64
		for i := range a {
			dot += float64(a[i]) * float64(b[i])
		}
		out.Scores[k] = 1 / (1 + math.Exp(-dot))
	}
	writeJSON(w, out)
}

// maxRequestBytes bounds a query body read off the network. The bodies
// nsload (at its defaults), the benchmark and the fuzz seed corpus send are
// well under a kilobyte; the limit leaves room for requests of ~10^5
// vertices or a batch of inductive vertices with their feature rows.
const maxRequestBytes = 4 << 20

// decodeBody decodes a POSTed JSON body of at most maxRequestBytes into v. It
// answers the request itself when it cannot: 405 for another method, 400 for
// a malformed or over-limit body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("serve: bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// jsonWriter is an indenting encoder with the buffers it grows: the output
// and, inside the Encoder, the indent buffer. A fresh Encoder per response
// regrows both from nothing, which for a 32-vertex /predict answer is most
// of what the request allocates.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	jw := jsonWriters.Get().(*jsonWriter)
	jw.buf.Reset()
	_ = jw.enc.Encode(v) // an unencodable value leaves the body empty
	_, _ = w.Write(jw.buf.Bytes())
	jsonWriters.Put(jw)
}

func argmaxRows(t *tensor.Tensor) []int {
	out := make([]int, t.Rows())
	for r := 0; r < t.Rows(); r++ {
		row := t.Row(r)
		best := 0
		for c, v := range row {
			if v > row[best] {
				best = c
			}
		}
		out[r] = best
	}
	return out
}

func copyRows(t *tensor.Tensor) [][]float32 {
	out := make([][]float32, t.Rows())
	for r := 0; r < t.Rows(); r++ {
		out[r] = append([]float32(nil), t.Row(r)...)
	}
	return out
}
