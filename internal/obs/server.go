package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the opt-in debug server: it exposes the metric registry, a
// liveness probe, JSON snapshots, and the stdlib pprof profiles on one
// listener. Endpoints:
//
//	/metrics       registry exposition (classic text or OpenMetrics with
//	               exemplars, negotiated via Accept)
//	/healthz       200 "ok" liveness probe
//	/status        JSON snapshot from the Status callback
//	/epochs        JSON flight-recorder timeline from the Epochs callback:
//	               each epoch's record carries its critical path, straggler
//	               index, barrier share and slowest worker
//	/healthwatch   JSON watchdog HealthReport from the HealthWatch callback
//	/timeline      windowed metric time series from the History (404 when no
//	               history is wired)
//	/debug/pprof/  net/http/pprof index (profile, heap, goroutine, trace, …)
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Endpoints supplies the JSON snapshot callbacks of a debug server. Each
// callback is invoked per request and must be safe for concurrent use; a nil
// callback makes its endpoint serve an empty object.
type Endpoints struct {
	// Status serves /status: the run's live status snapshot.
	Status func() any
	// Epochs serves /epochs: the flight-recorder timeline.
	Epochs func() any
	// HealthWatch serves /healthwatch: the watchdog's HealthReport.
	HealthWatch func() any
	// History, when non-nil, serves /timeline: windowed time series of every
	// registry metric (see TimelineHandler for the query grammar).
	History *History
}

// NewServer binds addr (":8080", "127.0.0.1:0", …) and serves in the
// background until Close. reg defaults to Default() when nil. The bound
// address — useful with port 0 — is available via Addr.
func NewServer(addr string, reg *Registry, eps Endpoints) (*Server, error) {
	if reg == nil {
		reg = Default()
	}
	serveJSON := func(cb func() any) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			var v any = struct{}{}
			if cb != nil {
				v = cb()
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/status", serveJSON(eps.Status))
	mux.HandleFunc("/epochs", serveJSON(eps.Epochs))
	mux.HandleFunc("/healthwatch", serveJSON(eps.HealthWatch))
	if eps.History != nil {
		mux.HandleFunc("/timeline", TimelineHandler(eps.History))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately; in-flight requests are aborted.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
