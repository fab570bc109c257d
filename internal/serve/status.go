package serve

import (
	"context"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"sync"

	"pmcpower/internal/obs"
	"pmcpower/internal/quality"
)

// qualityHub owns one quality.Monitor per served model version,
// created lazily the first time a labelled sample arrives for that
// version. Transitions fan out to the metrics registry
// (pmcpowerd_quality_state, pmcpowerd_quality_transitions_total), the
// structured log, and the flight recorder: the request whose sample
// tipped the state machine is flagged for full-trace retention, and a
// transition into alert dumps the recorder to disk (when a dump path
// is configured) so the evidence survives the incident.
type qualityHub struct {
	cfg      Config
	metrics  *Metrics
	logger   *slog.Logger
	recorder *obs.FlightRecorder
	dumpPath string // alert-transition dump target; "" disables

	mu       sync.Mutex
	monitors map[string]*quality.Monitor
}

func newQualityHub(cfg Config, m *Metrics, logger *slog.Logger, rec *obs.FlightRecorder) *qualityHub {
	return &qualityHub{
		cfg:      cfg,
		metrics:  m,
		logger:   logger,
		recorder: rec,
		dumpPath: cfg.FlightRecDumpPath,
		monitors: make(map[string]*quality.Monitor),
	}
}

// monitor returns the monitor for one resolved model key
// ("name@version"), creating it on first use.
func (h *qualityHub) monitor(key string) *quality.Monitor {
	h.mu.Lock()
	defer h.mu.Unlock()
	if mon, ok := h.monitors[key]; ok {
		return mon
	}
	mon := quality.NewMonitor(quality.Config{
		Window:     h.cfg.QualityWindow,
		Exemplars:  h.cfg.QualityExemplars,
		Thresholds: h.cfg.QualityThresholds,
		Now:        h.cfg.Now,
		OnTransition: func(from, to quality.State, o quality.Observation, snap quality.WindowSnapshot) {
			h.metrics.QualityState(key, float64(to))
			h.metrics.QualityTransition(key, to.String())
			if h.logger != nil {
				level := slog.LevelInfo
				switch to {
				case quality.StateWarn:
					level = slog.LevelWarn
				case quality.StateAlert:
					level = slog.LevelError
				}
				h.logger.Log(context.Background(), level, "model quality state change",
					"model", key,
					"from", from.String(),
					"to", to.String(),
					"trace_id", o.TraceID,
					"window_n", snap.N,
					"window_mape_pct", snap.MAPEPct,
					"window_bias_w", snap.BiasW,
				)
			}
			if o.TraceID != "" {
				reason := "quality " + from.String() + "->" + to.String()
				h.recorder.Flag(o.TraceID, reason)
				h.recorder.Annotate(o.TraceID, "quality transition", key+": "+reason)
			}
			if to == quality.StateAlert && h.dumpPath != "" {
				// Synchronous by design: this runs once per alert
				// transition (hysteresis-gated), and writing in the
				// observing goroutine means the dump deterministically
				// precedes any response the operator reacts to. The dump
				// holds the traces retained *before* this request; the
				// flagged request itself joins the ring when it finishes.
				if err := h.recorder.WriteFile(h.dumpPath); err != nil {
					if h.logger != nil {
						h.logger.Error("flight-recorder alert dump failed", "path", h.dumpPath, "error", err.Error())
					}
				} else if h.logger != nil {
					h.logger.Info("flight-recorder dump written on alert", "path", h.dumpPath, "model", key)
				}
			}
		},
	})
	// Publish the gauge at ok immediately so the series exists before
	// the first transition.
	h.metrics.QualityState(key, float64(quality.StateOK))
	h.monitors[key] = mon
	return mon
}

// monitorsByKey copies the monitor table, so callers read monitors
// without holding the hub lock across monitor locks.
func (h *qualityHub) monitorsByKey() map[string]*quality.Monitor {
	h.mu.Lock()
	defer h.mu.Unlock()
	mons := make(map[string]*quality.Monitor, len(h.monitors))
	for k, m := range h.monitors {
		mons[k] = m
	}
	return mons
}

// snapshots returns every monitor's snapshot keyed by model.
func (h *qualityHub) snapshots() map[string]quality.Snapshot {
	mons := h.monitorsByKey()
	out := make(map[string]quality.Snapshot, len(mons))
	for k, m := range mons {
		out[k] = m.Snapshot()
	}
	return out
}

// alerting returns the sorted keys of models currently in alert.
func (h *qualityHub) alerting() []string {
	var out []string
	for k, s := range h.snapshots() {
		if s.State == quality.StateAlert {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// --- status wire format ----------------------------------------------

// StatusResponse is the body of GET /v1/status: one JSON document an
// operator (or pmcpowertop) can poll to see what the daemon is
// serving and how well it is predicting. The shape is part of the
// service contract; CI validates it against a live daemon.
type StatusResponse struct {
	Service   string  `json:"service"`
	Version   string  `json:"version"`
	GoVersion string  `json:"go_version"`
	UptimeS   float64 `json:"uptime_s"`

	Health    StatusHealth    `json:"health"`
	Sessions  StatusSessions  `json:"sessions"`
	Admission StatusAdmission `json:"admission"`
	Models    []ModelInfo     `json:"models"`
	// Quality has one entry per model version that has received
	// labelled samples, sorted by model key.
	Quality []ModelQuality `json:"quality"`
}

// StatusHealth summarizes servability: "ok", "warn", "alert", or
// "unavailable" (no models registered). Shallow /healthz fails only on
// "unavailable"; /healthz?deep=1 also fails on "alert".
type StatusHealth struct {
	Status         string `json:"status"`
	ServableModels int    `json:"servable_models"`
	// AlertingModels lists model keys currently in drift alert.
	AlertingModels []string `json:"alerting_models,omitempty"`
}

// StatusSessions summarizes the session table, including its shard
// layout (PerShard[i] is shard i's live-session count — the
// pmcpowertop shard bars, and a skew diagnostic for operators).
type StatusSessions struct {
	Active   int    `json:"active"`
	Created  uint64 `json:"created"`
	Evicted  uint64 `json:"evicted"`
	Shards   int    `json:"shards"`
	PerShard []int  `json:"per_shard"`
}

// StatusAdmission reports the admission gate: configuration, the live
// in-flight count, and the shed state. Enabled is false when both
// knobs are off (the gate then only tracks in-flight).
type StatusAdmission struct {
	Enabled     bool    `json:"enabled"`
	MaxInFlight int     `json:"max_inflight"`
	InFlight    int     `json:"in_flight"`
	ShedP99MS   float64 `json:"shed_p99_ms"`
	P99EwmaMS   float64 `json:"p99_ewma_ms"`
	Shedding    bool    `json:"shedding"`
	ShedTotal   uint64  `json:"shed_total"`
}

// ModelQuality is the per-model-version accuracy block of /v1/status:
// drift state, lifetime labelled-sample counts, and the sliding-window
// residual statistics (MAPE, signed bias, error quantiles in watts).
type ModelQuality struct {
	Model            string  `json:"model"`
	State            string  `json:"state"`
	LabelledSamples  uint64  `json:"labelled_samples"`
	SkippedLabels    uint64  `json:"skipped_labels"`
	WindowN          int     `json:"window_n"`
	WindowMAPEPct    float64 `json:"window_mape_pct"`
	WindowBiasW      float64 `json:"window_bias_w"`
	ErrP50W          float64 `json:"err_p50_w"`
	ErrP95W          float64 `json:"err_p95_w"`
	ErrP99W          float64 `json:"err_p99_w"`
	WarnTransitions  uint64  `json:"warn_transitions"`
	AlertTransitions uint64  `json:"alert_transitions"`
	Exemplars        int     `json:"exemplars"`
}

// ExemplarEntry is one record of GET /debug/exemplars: a captured
// worst-residual sample tagged with the model that produced it.
type ExemplarEntry struct {
	Model string `json:"model"`
	quality.ExemplarRecord
}

type exemplarsResponse struct {
	Exemplars []ExemplarEntry `json:"exemplars"`
}

// --- handlers --------------------------------------------------------

// Status assembles the /v1/status document (exported so embedders and
// the scenario harness can read it without HTTP).
func (s *Server) Status() StatusResponse {
	resp := StatusResponse{
		Service:   "pmcpowerd",
		Version:   s.build.Version,
		GoVersion: s.build.GoVersion,
		UptimeS:   s.cfg.Now().Sub(s.start).Seconds(),
		Health: StatusHealth{
			Status:         "ok",
			ServableModels: s.reg.Count(),
		},
		Sessions: StatusSessions{
			Active:   s.sessions.count(),
			Created:  s.metrics.SessionsCreated(),
			Evicted:  s.metrics.Evictions(),
			Shards:   len(s.sessions.shards),
			PerShard: s.sessions.shardCounts(),
		},
		Admission: StatusAdmission{
			Enabled:     s.gate.enabled(),
			MaxInFlight: s.cfg.MaxInFlight,
			InFlight:    s.gate.inFlight(),
			ShedP99MS:   s.cfg.ShedP99.Seconds() * 1e3,
			P99EwmaMS:   s.gate.p99EwmaS() * 1e3,
			Shedding:    s.gate.sheddingNow(),
			ShedTotal:   s.gate.shedTotal(),
		},
		Models: s.reg.List(),
	}
	if resp.Health.ServableModels == 0 {
		resp.Health.Status = "unavailable"
	}
	snaps := s.quality.snapshots()
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	worst := quality.StateOK
	for _, k := range keys {
		snap := snaps[k]
		if snap.State > worst {
			worst = snap.State
		}
		if snap.State == quality.StateAlert {
			resp.Health.AlertingModels = append(resp.Health.AlertingModels, k)
		}
		resp.Quality = append(resp.Quality, ModelQuality{
			Model:            k,
			State:            snap.State.String(),
			LabelledSamples:  snap.Window.Total,
			SkippedLabels:    snap.Window.Skipped,
			WindowN:          snap.Window.N,
			WindowMAPEPct:    snap.Window.MAPEPct,
			WindowBiasW:      snap.Window.BiasW,
			ErrP50W:          snap.Window.P50W,
			ErrP95W:          snap.Window.P95W,
			ErrP99W:          snap.Window.P99W,
			WarnTransitions:  snap.WarnTransitions,
			AlertTransitions: snap.AlertTransitions,
			Exemplars:        snap.ExemplarCount,
		})
	}
	if resp.Health.Status == "ok" && worst != quality.StateOK {
		resp.Health.Status = worst.String()
	}
	return resp
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/v1/status")
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleExemplars(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/debug/exemplars")
	resp := exemplarsResponse{Exemplars: []ExemplarEntry{}}
	for k, m := range s.quality.monitorsByKey() {
		for _, rec := range m.ExemplarRecords() {
			resp.Exemplars = append(resp.Exemplars, ExemplarEntry{Model: k, ExemplarRecord: rec})
		}
	}
	// Worst first across models; ties broken by model key so the order
	// is deterministic.
	sort.Slice(resp.Exemplars, func(i, j int) bool {
		ri := math.Abs(resp.Exemplars[i].ResidualW)
		rj := math.Abs(resp.Exemplars[j].ResidualW)
		if ri != rj {
			return ri > rj
		}
		return resp.Exemplars[i].Model < resp.Exemplars[j].Model
	})
	writeJSON(w, http.StatusOK, resp)
}
