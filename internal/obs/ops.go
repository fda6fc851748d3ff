package obs

import (
	"io"
	"net/http"
	"net/http/pprof"
)

// NewOpsMux builds the operations route table every server in this
// repository exposes (ckpt-mgr on its -metrics listener, ckpt-served
// beside its API):
//
//	/metrics               Prometheus text exposition of reg
//	/metrics/history       windowed series as JSON (only with hist)
//	/healthz               liveness probe, "ok"
//	/debug/trace/snapshot  the flight recorder as a Chrome trace (only with tracer)
//	/debug/pprof/*         net/http/pprof (only when pprofOn — profiling
//	                       endpoints do not belong on an exposed port unasked)
//
// A route whose backing object is absent is not mounted, so it 404s.
// Starting hist's self-scraper remains the caller's job.
func NewOpsMux(reg *Registry, tracer *Tracer, hist *History, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	if hist != nil {
		mux.Handle("/metrics/history", hist.Handler())
	}
	if tracer != nil {
		mux.Handle("/debug/trace/snapshot", tracer.SnapshotHandler())
	}
	if pprofOn {
		// Index also serves the named runtime profiles
		// (/debug/pprof/heap, /goroutine, ...).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
