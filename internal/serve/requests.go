package serve

import (
	"net/http"

	"pmcpower/internal/obs"
)

// RequestsResponse is the body of GET /debug/requests: a net/trace-style
// live view of the request plane. InFlight and Recent come from the
// flight recorder's summary rings; RetainedTraces are the full
// tail-sampled captures (slow, errored, or quality-flagged requests);
// LatencyExemplars link request-latency histogram buckets to concrete
// trace ids. The shape is part of the service contract; CI
// strict-decodes it against a live daemon.
type RequestsResponse struct {
	Service string `json:"service"`
	// SlowThresholdS is the current slow-retention bound in seconds (0
	// while slow detection is still warming up).
	SlowThresholdS float64 `json:"slow_threshold_s"`
	// RequestsTotal and RetainedTotal are lifetime recorder counters.
	RequestsTotal uint64 `json:"requests_total"`
	RetainedTotal uint64 `json:"retained_total"`

	InFlight       []obs.RequestSummary `json:"in_flight"`
	Recent         []obs.RequestSummary `json:"recent"`
	RetainedTraces []obs.RetainedTrace  `json:"retained_traces"`

	LatencyExemplars []PathExemplars `json:"latency_exemplars"`
}

// PathExemplars groups one endpoint's latency-bucket exemplars.
type PathExemplars struct {
	Path      string               `json:"path"`
	Exemplars []obs.BucketExemplar `json:"exemplars"`
}

// Requests assembles the /debug/requests document (exported so
// embedders and the scenario harness can read it without HTTP).
func (s *Server) Requests() RequestsResponse {
	resp := RequestsResponse{
		Service:          "pmcpowerd",
		SlowThresholdS:   s.flightrec.SlowThreshold().Seconds(),
		InFlight:         s.flightrec.InFlight(),
		Recent:           s.flightrec.Recent(),
		RetainedTraces:   s.flightrec.Retained(),
		LatencyExemplars: []PathExemplars{},
	}
	resp.RequestsTotal, resp.RetainedTotal = s.flightrec.Stats()
	for i, p := range gatedPaths {
		if ex := s.metrics.gatedLatency[i].Exemplars(); len(ex) > 0 {
			resp.LatencyExemplars = append(resp.LatencyExemplars, PathExemplars{Path: p, Exemplars: ex})
		}
	}
	return resp
}

func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/debug/requests")
	writeJSON(w, http.StatusOK, s.Requests())
}

// handleFlightRec serves the retained traces as a Chrome
// trace_event JSON document (load it in chrome://tracing or
// ui.perfetto.dev, or feed it to cmd/tracecheck). An empty recorder
// yields a valid document with no events.
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/debug/flightrec")
	w.Header().Set("Content-Type", "application/json")
	s.flightrec.WriteChromeTrace(w)
}
