package obs

import (
	"net/http"
	"net/http/pprof"
)

// DebugMux builds the handler pmcpowerd exposes on its private
// -debug-addr listener: the full net/http/pprof suite under
// /debug/pprof/ and the registry exposition under /debug/metrics.
// Profiling never shares the public port — the public mux simply does
// not register these routes. Request traces are served, bounded, by
// the flight recorder on the public mux (/debug/requests,
// /debug/flightrec).
//
// reg may be nil; /debug/metrics then serves an empty exposition.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if reg != nil {
			reg.WriteTo(w)
		}
	})
	return mux
}
