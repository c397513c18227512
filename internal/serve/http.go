package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
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
		writeJSON(w, nil, s.Stats())
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
	if res, ok := s.answer(w, r); ok {
		writeRows(w, res, appendPredict)
	}
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	if res, ok := s.answer(w, r); ok {
		writeRows(w, res, appendEmbed)
	}
}

// answer decodes a query body and runs it; a request it cannot answer has
// had its 4xx when it returns false.
func (s *Server) answer(w http.ResponseWriter, r *http.Request) (*Result, bool) {
	var req Request
	if !decodeBody(w, r, &req) {
		return nil, false
	}
	res, err := s.Query(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return res, true
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
	out := LinkResponse{ModelVersion: res.Version, Scores: make([]float64, len(lr.Pairs))}
	for k, p := range lr.Pairs {
		a, b := res.Embeds.Row(pos[p[0]]), res.Embeds.Row(pos[p[1]])
		var dot float64
		for i := range a {
			dot += float64(float64(a[i]) * float64(b[i]))
		}
		out.Scores[k] = 1 / (1 + tensor.Exp(-dot))
	}
	writeJSON(w, &res.Timing, out)
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

// writeJSON sends v compact, as json.Marshal encodes it, with the query's
// timing headers when t is non-nil.
func writeJSON(w http.ResponseWriter, t *StageTiming, v any) {
	b, err := json.Marshal(v)
	writeBody(w, t, append(b, '\n'), err)
}

// writeBody sends an encoded response, or — when encoding failed, as it does
// on a value JSON has no form for — a 500 that names it. Only a response
// carries the timing headers.
func writeBody(w http.ResponseWriter, t *StageTiming, body []byte, err error) {
	if err != nil {
		http.Error(w, fmt.Sprintf("serve: cannot encode the response: %v", err), http.StatusInternalServerError)
		return
	}
	if t != nil {
		setTimingHeaders(w.Header(), *t)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// bodies recycles the buffers /predict and /embed encode into, so a
// response costs no allocation once the buffers have grown to the answers'
// size.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writeRows sends a query's answer as appendBody encodes it, in a pooled
// buffer.
func writeRows(w http.ResponseWriter, res *Result, appendBody func([]byte, *Result) ([]byte, error)) {
	bp := bodies.Get().(*[]byte)
	b, err := appendBody((*bp)[:0], res)
	writeBody(w, &res.Timing, b, err)
	*bp = b
	bodies.Put(bp)
}

// appendPredict appends /predict's body: the bytes json.Marshal gives for
// PredictResponse{version, per-row argmax labels, logits} plus a newline,
// written straight from the tensor — or, for a row the cache kept the text
// of, from that text.
func appendPredict(b []byte, res *Result) ([]byte, error) {
	logits := res.Logits
	b = append(b, `{"model_version":`...)
	b = strconv.AppendUint(b, res.Version, 10)
	b = append(b, `,"labels":[`...)
	for r := 0; r < logits.Rows(); r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(argmax(logits.Row(r))), 10)
	}
	b = append(b, `],"logits":`...)
	b, err := appendRows(b, "logits", logits, res.texts)
	return append(b, "}\n"...), err
}

// appendEmbed appends /embed's body: the bytes json.Marshal gives for
// EmbedResponse{version, embeds} plus a newline.
func appendEmbed(b []byte, res *Result) ([]byte, error) {
	b = append(b, `{"model_version":`...)
	b = strconv.AppendUint(b, res.Version, 10)
	b = append(b, `,"embeddings":`...)
	b, err := appendRows(b, "embeddings", res.Embeds, nil)
	return append(b, "}\n"...), err
}

// appendRows appends t as an array of row arrays, row r as texts[r] where
// that is non-nil. A NaN or an infinity has no JSON form; the error names it
// and its place.
func appendRows(b []byte, what string, t *tensor.Tensor, texts [][]byte) ([]byte, error) {
	b = append(b, '[')
	for r := 0; r < t.Rows(); r++ {
		if r > 0 {
			b = append(b, ',')
		}
		if r < len(texts) && texts[r] != nil {
			b = append(b, texts[r]...)
			continue
		}
		var err error
		if b, err = appendRow(b, what, r, t.Row(r)); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendRow appends row r of what as a JSON array.
func appendRow(b []byte, what string, r int, row []float32) ([]byte, error) {
	b = append(b, '[')
	for c, v := range row {
		if c > 0 {
			b = append(b, ',')
		}
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("%s row %d column %d is %v", what, r, c, v)
		}
		b = appendFloat32(b, v)
	}
	return append(b, ']'), nil
}

// appendFloat32 formats a finite f the way encoding/json formats a float32:
// the shortest digits that round-trip to the same bits, in exponent form
// below 1e-6 and from 1e21 up, with a two-digit negative exponent's leading
// zero dropped (1e-07 becomes 1e-7).
func appendFloat32(b []byte, f float32) []byte {
	abs := float32(math.Abs(float64(f)))
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, float64(f), format, -1, 32)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// argmax returns the index of row's first largest value.
func argmax(row []float32) int {
	best := 0
	for c, v := range row {
		if v > row[best] {
			best = c
		}
	}
	return best
}
