package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/obs"
	"pmcpower/internal/pmu"
	"pmcpower/internal/quality"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Registry supplies the deployed models; a fresh empty registry is
	// created when nil.
	Registry *Registry
	// DefaultAlpha is the EWMA factor used when a client does not pass
	// ?alpha=. Default 1 (no smoothing — what the energy integral and
	// batch prediction also see).
	DefaultAlpha float64
	// IdleTTL evicts sessions with no attached stream for this long.
	// Default 5 minutes.
	IdleTTL time.Duration
	// SweepInterval is the janitor period. Default IdleTTL/4,
	// clamped to [1s, 30s].
	SweepInterval time.Duration
	// MaxSessions caps live sessions; further session creation gets
	// HTTP 429. Default 1024.
	MaxSessions int
	// Shards is the session-table shard count, rounded up to a power
	// of two. Each shard has its own lock and janitor bookkeeping, so
	// concurrent streams for different clients never serialize on one
	// mutex; the per-sample latency histogram is striped the same way.
	// Default 8. 1 reproduces the seed's single-lock table (the
	// loadtest baseline). pmcpowerd sets it from -shards.
	Shards int
	// MaxInFlight caps concurrently admitted estimate/predict
	// requests; beyond it the admission gate sheds with 429 +
	// Retry-After before any model work happens. 0 (default) disables
	// the cap. pmcpowerd sets it from -max-inflight.
	MaxInFlight int
	// ShedP99 enables latency shedding: while the EWMA of the p99 over
	// recent estimate/predict requests exceeds this, new ones are shed
	// with 503 + Retry-After. 0 (default) disables. pmcpowerd sets it
	// from -shed-p99-ms.
	ShedP99 time.Duration
	// ShedSampleEvery is the number of gated-request completions
	// between p99 recomputations. Default 32.
	ShedSampleEvery int
	// RetryAfter is the backoff hint stamped on shed responses
	// (rounded up to whole seconds). Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes caps the request body of the non-streaming JSON
	// endpoints (/v1/predict and model upload); an oversized body gets
	// 413. Default 8 MiB. The streaming estimate endpoint is bounded
	// per line by MaxLineBytes instead.
	MaxBodyBytes int64
	// LegacyServing reproduces the seed's serving path exactly: a
	// single-shard session table, a response flush and a fresh parse
	// allocation per NDJSON sample. Responses are bit-identical either
	// way (the equivalence test pins it); the flag exists so the
	// committed loadtest baseline (BENCH_7.json) measures the real
	// pre-optimization path on the same binary, the same way
	// SelectOptions.Exact preserves the exact selection path.
	LegacyServing bool
	// RefitWindow is the default streaming-refit window (in labelled
	// samples) applied to new estimator sessions when a client does not
	// pass ?refit=. 0 (the default) serves the frozen offline fit;
	// clients can still opt in per session with ?refit=N. pmcpowerd
	// sets it from -refit-window.
	RefitWindow int
	// MaxLineBytes caps one NDJSON input line — the per-sample
	// backpressure bound. Default 1 MiB.
	MaxLineBytes int
	// Now is the clock, injectable for tests. Default time.Now.
	Now func() time.Time
	// Obs is the metrics registry the service instruments register
	// on. Default: a fresh private registry (test isolation);
	// pmcpowerd passes obs.Default() so library metrics (e.g. the
	// parallel engine's task counters) share the /metrics exposition.
	Obs *obs.Registry
	// Logger, when non-nil, receives one structured record per HTTP
	// request (method, path, status, duration, session id) plus
	// lifecycle events. Nil disables request logging.
	Logger *slog.Logger
	// Tracer, when non-nil, records one span per HTTP request; the
	// span context is threaded into the handler. The tracer keeps
	// every span, so it suits bounded runs (tests, benchmarks); a
	// long-running daemon leaves it nil and relies on the flight
	// recorder's bounded request traces.
	Tracer *obs.Tracer
	// QualityWindow is the sliding-window size (in labelled samples)
	// for model-quality tracking, both per served model version and
	// per session. Default 256.
	QualityWindow int
	// QualityExemplars is the per-model worst-residual buffer
	// capacity served at /debug/exemplars. Default 32.
	QualityExemplars int
	// QualityThresholds configures the drift state machine (zero
	// fields take the quality package defaults).
	QualityThresholds quality.Thresholds
	// DisableQuality turns model-quality tracking off entirely:
	// labelled samples skip the quality path, /v1/status carries no
	// quality block, and deep health degenerates to shallow health.
	// Estimates are bit-identical either way — quality is a pure
	// observer.
	DisableQuality bool
	// DisableFlightRec turns the tail-sampled flight recorder off:
	// /debug/requests and /debug/flightrec serve empty documents and no
	// per-request trace state is kept. Trace IDs still flow on the wire
	// (headers, rows, logs) either way, and responses are bit-identical
	// with the recorder on or off — it is a pure observer.
	DisableFlightRec bool
	// FlightRecRetain caps the ring of fully retained traces. Default
	// 64 (the obs package default).
	FlightRecRetain int
	// FlightRecRecent caps the recently-completed request summary ring
	// served at /debug/requests. Default 128.
	FlightRecRecent int
	// FlightRecEvents caps captured events per trace. Default 64.
	FlightRecEvents int
	// FlightRecSlowFactor: a request is retained as slow when its
	// duration exceeds SlowFactor × the rolling mean. Default 4.
	FlightRecSlowFactor float64
	// FlightRecMinSlow is the absolute floor under which no request
	// counts as slow. Default 1s.
	FlightRecMinSlow time.Duration
	// FlightRecWarmup is the completed-request count before slow
	// detection arms. Default 32.
	FlightRecWarmup int
	// FlightRecDumpPath, when non-empty, is where the recorder dumps a
	// Chrome-trace file on a quality transition into alert (pmcpowerd
	// also dumps there on SIGQUIT).
	FlightRecDumpPath string
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.DefaultAlpha == 0 {
		c.DefaultAlpha = 1
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 5 * time.Minute
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = c.IdleTTL / 4
		if c.SweepInterval < time.Second {
			c.SweepInterval = time.Second
		}
		if c.SweepInterval > 30*time.Second {
			c.SweepInterval = 30 * time.Second
		}
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.LegacyServing {
		c.Shards = 1
	}
	c.Shards = shardCount(c.Shards)
	if c.ShedSampleEvery <= 0 {
		c.ShedSampleEvery = 32
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxLineBytes == 0 {
		c.MaxLineBytes = 1 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.QualityWindow <= 0 {
		c.QualityWindow = 256
	}
	if c.QualityExemplars <= 0 {
		c.QualityExemplars = 32
	}
	return c
}

// Server is the pmcpowerd HTTP service: streaming NDJSON estimation
// over per-client sessions, batch prediction, model listing, health,
// and text metrics.
type Server struct {
	cfg       Config
	reg       *Registry
	metrics   *Metrics
	sessions  *sessionManager
	gate      *admissionGate
	quality   *qualityHub         // nil when cfg.DisableQuality
	flightrec *obs.FlightRecorder // nil when cfg.DisableFlightRec
	mux       *http.ServeMux

	start     time.Time
	version   string
	goVersion string

	stop     chan struct{}
	stopOnce sync.Once
	janitor  sync.WaitGroup
}

// New builds a Server and starts its idle-eviction janitor. Call
// Close when done.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		metrics:   NewMetrics(cfg.Obs, cfg.Shards),
		start:     cfg.Now(),
		version:   buildVersion(),
		goVersion: runtime.Version(),
		stop:      make(chan struct{}),
	}
	if !cfg.DisableFlightRec {
		s.flightrec = obs.NewFlightRecorder(obs.FlightRecorderConfig{
			Stages:     flightStages,
			Retain:     cfg.FlightRecRetain,
			Recent:     cfg.FlightRecRecent,
			MaxEvents:  cfg.FlightRecEvents,
			SlowFactor: cfg.FlightRecSlowFactor,
			MinSlow:    cfg.FlightRecMinSlow,
			Warmup:     cfg.FlightRecWarmup,
			Now:        cfg.Now,
		})
	}
	qualityWindow := cfg.QualityWindow
	if cfg.DisableQuality {
		qualityWindow = 0
	} else {
		s.quality = newQualityHub(cfg, s.metrics, cfg.Logger, s.flightrec)
	}
	s.sessions = newSessionManager(cfg.Shards, cfg.MaxSessions, cfg.IdleTTL, cfg.Now, s.metrics, qualityWindow)
	s.gate = newAdmissionGate(cfg, s.metrics)
	s.metrics.SetBuildInfo(s.version, s.goVersion)
	// Gauges owned by other components, sampled at render time.
	cfg.Obs.GaugeFunc("pmcpowerd_sessions_active",
		"Live estimator sessions.", func() float64 { return float64(s.sessions.count()) })
	cfg.Obs.GaugeFunc("pmcpowerd_inflight",
		"Estimate/predict requests currently admitted.",
		func() float64 { return float64(s.gate.inFlight()) })
	cfg.Obs.GaugeFunc("pmcpowerd_models",
		"Models registered for serving.", func() float64 { return float64(len(s.reg.List())) })
	cfg.Obs.GaugeFunc("pmcpowerd_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return s.cfg.Now().Sub(s.start).Seconds() })
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.HandleFunc("/debug/exemplars", s.handleExemplars)
	s.mux.HandleFunc("/debug/requests", s.handleRequests)
	s.mux.HandleFunc("/debug/flightrec", s.handleFlightRec)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.janitor.Add(1)
	go s.runJanitor()
	return s
}

// buildVersion reports the main module's version from the embedded
// build info ("dev" for an unstamped build, e.g. `go test`).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}

// flightStages names the per-request stage timing slots the estimate
// loop reports into the flight recorder; the stage* constants index
// into it.
var flightStages = []string{"parse", "push", "quality", "encode"}

const (
	stageParse = iota
	stagePush
	stageQuality
	stageEncode
)

// Handler returns the root handler for an http.Server: the service
// mux wrapped in the observability middleware. Every request gets a
// trace context — adopted from an inbound W3C `traceparent` header
// (same trace id, fresh server-side span id) or minted — echoed back
// in the response's Traceparent header and threaded through the
// request context so spans, log records, NDJSON rows, quality
// observations, and the flight recorder all carry the same IDs. The
// middleware also records per-request latency histograms for the
// estimation endpoints (with the trace id as bucket exemplar), an
// optional span per request, an optional structured request log, and
// the flight-recorder begin/finish bracket.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc, adopted := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if adopted {
			// The caller's span id names the caller's span; this hop
			// needs its own.
			tc.SpanID = obs.NewSpanID()
		} else {
			tc = obs.NewTraceContext()
		}
		w.Header().Set("Traceparent", tc.Traceparent())
		ctx := obs.ContextWithTrace(r.Context(), tc)
		ctx, span := s.cfg.Tracer.StartSpan(ctx, "http "+r.URL.Path,
			obs.String("method", r.Method),
			obs.String("trace_id", tc.TraceID),
			obs.String("span_id", tc.SpanID))
		at := s.flightrec.Begin(tc, r.Method, r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}
		s.mux.ServeHTTP(sw, r.WithContext(ctx))
		d := time.Since(start)
		status := sw.Status()
		span.SetAttr(obs.Int("status", status))
		span.End()
		s.flightrec.Finish(at, status)
		if p := r.URL.Path; p == "/v1/estimate" || p == "/v1/predict" {
			s.metrics.RequestLatencyExemplar(p, d, tc.TraceID)
			// Feed the admission gate's p99 signal. Shed responses count
			// too — their small latencies are what lets the EWMA decay
			// and admission reopen under sustained overload.
			s.gate.observe()
		}
		if s.cfg.Logger != nil {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"duration_ms", float64(d.Nanoseconds()) / 1e6,
				"trace_id", tc.TraceID,
				"span_id", tc.SpanID,
			}
			if id := r.URL.Query().Get("session"); id != "" {
				attrs = append(attrs, "session", id)
			}
			s.cfg.Logger.Info("request", attrs...)
		}
	})
}

// statusWriter records the response status for the middleware.
// Unwrap exposes the underlying writer so http.ResponseController
// (flushing, full-duplex NDJSON streaming) keeps working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Status returns the recorded status (200 when the handler never
// wrote a header or body).
func (sw *statusWriter) Status() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Metrics exposes the server's counters (used by tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// FlightRecorder exposes the tail-sampled request recorder (nil when
// disabled) — pmcpowerd dumps it on SIGQUIT, tests inspect it.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flightrec }

// ActiveSessions returns the number of live estimator sessions.
func (s *Server) ActiveSessions() int { return s.sessions.count() }

// SessionQuality returns the residual-window snapshot of one named
// session (the model key as passed by the client, plus the session
// id). ok is false when the session does not exist or quality
// tracking is disabled.
func (s *Server) SessionQuality(model, id string) (quality.WindowSnapshot, bool) {
	return s.sessions.qualitySnapshot(sessionKey{model: model, id: id})
}

// SweepIdleSessions runs one eviction pass at the server's current
// clock and returns the number of sessions evicted. The janitor calls
// this periodically; tests call it directly with an advanced fake
// clock.
func (s *Server) SweepIdleSessions() int { return s.sessions.sweep(s.cfg.Now()) }

// EstimateSample pushes one counter sample through a named session's
// estimator exactly as one /v1/estimate NDJSON line would — admission
// gate, registry resolution, session bookkeeping, and metrics are the
// serving path's — but without HTTP framing or parsing. It exists for
// in-process harnesses (cmd/loadgen's engine mode, the allocation
// gate in tests) that drive the serving core without a socket; the
// steady-state path allocates nothing.
func (s *Server) EstimateSample(model, sessionID string, cs core.CounterSample) (core.StreamEstimate, error) {
	if herr := s.gate.admit("/v1/estimate"); herr != nil {
		return core.StreamEstimate{}, herr
	}
	ref, err := s.reg.Resolve(model)
	if err != nil {
		s.gate.leave()
		return core.StreamEstimate{}, err
	}
	key := sessionKey{model: model, id: sessionID}
	sess, herr := s.sessions.acquire(key, ref.Model, s.cfg.DefaultAlpha, s.cfg.RefitWindow)
	if herr != nil {
		s.gate.leave()
		return core.StreamEstimate{}, herr
	}
	start := time.Now()
	est, perr := sess.stream.Push(cs)
	if perr == nil {
		s.metrics.Estimate(s.sessions.shardIndex(key), time.Since(start))
	} else {
		s.metrics.Reject(classifyPushError(perr))
	}
	s.sessions.release(key)
	s.gate.leave()
	return est, perr
}

// Close stops the janitor. In-flight requests are the http.Server's
// concern (use its Shutdown for request draining).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.janitor.Wait()
}

func (s *Server) runJanitor() {
	defer s.janitor.Done()
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.SweepIdleSessions()
		}
	}
}

// --- wire formats ----------------------------------------------------

// wireSample is one NDJSON input line of /v1/estimate: a
// core.CounterSample with events keyed by PAPI name. Frequency is
// decoded as float64 so that a non-finite or fractional value is
// caught by validation instead of silently truncating through an int
// field (json: NaN/Inf literals fail to parse, but 1e300 or 2400.5
// would otherwise corrupt the operating point). PowerW, when present,
// is a measured power reference (e.g. a RAPL reading) that a
// refit-enabled session folds into its sliding-window refit.
type wireSample struct {
	TimeNs   uint64             `json:"time_ns"`
	FreqMHz  float64            `json:"freq_mhz"`
	VoltageV float64            `json:"voltage_v"`
	Rates    map[string]float64 `json:"rates"`
	PowerW   *float64           `json:"power_w"`
}

// wireEstimate is one NDJSON output line of /v1/estimate.
// ModelVersion is the coefficient generation that computed the
// estimate: 0 is the frozen offline fit; a refit-enabled session
// increments it with every streaming coefficient refresh, so clients
// can tell frozen from adapting output.
type wireEstimate struct {
	TimeNs       uint64  `json:"time_ns"`
	InstantW     float64 `json:"instant_w"`
	SmoothedW    float64 `json:"smoothed_w"`
	TotalJ       float64 `json:"total_j"`
	Samples      uint64  `json:"samples"`
	ModelVersion uint64  `json:"model_version"`
	// TraceID is the request's trace id (constant across the rows of
	// one stream), so one grep correlates a client-side row to the
	// server's spans, logs, and flight-recorder capture.
	TraceID string `json:"trace_id,omitempty"`
}

// wireError is an NDJSON error record emitted for samples rejected
// after the stream has started (the session state is untouched; the
// stream continues).
type wireError struct {
	Error   string `json:"error"`
	Reason  string `json:"reason"`
	TraceID string `json:"trace_id,omitempty"`
}

// predictRequest is the body of POST /v1/predict.
type predictRequest struct {
	Model string    `json:"model"`
	Rows  []wireRow `json:"rows"`
}

type wireRow struct {
	FreqMHz  float64            `json:"freq_mhz"`
	VoltageV float64            `json:"voltage_v"`
	Rates    map[string]float64 `json:"rates"`
}

type predictResponse struct {
	Model   string    `json:"model"`
	N       int       `json:"n"`
	Watts   []float64 `json:"watts"`
	TraceID string    `json:"trace_id,omitempty"`
}

// --- handlers --------------------------------------------------------

// handleHealth is the readiness probe. The shallow check asks "can
// this daemon serve anything" — it fails (503) only when no model is
// registered. ?deep=1 additionally asks "is what it serves still
// accurate and keeping up" and fails while admission control is
// shedding load or any served model is in drift alert, so a load
// balancer can drain a node whose calibration has gone stale (or that
// is drowning) while a plain liveness probe keeps passing.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/healthz")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.reg.Count() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "unavailable: no models registered")
		return
	}
	if r.URL.Query().Get("deep") == "1" {
		if s.gate.sheddingNow() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "overloaded: shedding load (p99 EWMA %.1f ms over %.1f ms)\n",
				s.gate.p99EwmaS()*1e3, s.cfg.ShedP99.Seconds()*1e3)
			return
		}
		if s.quality != nil {
			if alerting := s.quality.alerting(); len(alerting) > 0 {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "alert: model quality degraded: %s\n", strings.Join(alerting, ", "))
				return
			}
		}
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/metrics")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/v1/models")
	if r.Method == http.MethodPost {
		s.handleModelUpload(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.reg.List())
}

// handleModelUpload registers a persisted model document (the
// core.WriteJSON format) under ?name=, hot-swapping it into the
// registry: in-flight streams keep the snapshot they resolved, new
// lookups see the new version atomically. The body is capped at
// MaxBodyBytes (413 beyond).
func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		s.metrics.Reject(ReasonParse)
		writeError(w, http.StatusBadRequest, ReasonParse, errors.New("serve: model upload requires ?name="))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	m, err := core.ReadJSON(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.Reject(ReasonOversized)
			writeError(w, http.StatusRequestEntityTooLarge, ReasonOversized,
				fmt.Errorf("serve: model document exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.metrics.Reject(ReasonParse)
		writeError(w, http.StatusBadRequest, ReasonParse, fmt.Errorf("serve: decoding model: %w", err))
		return
	}
	version, err := s.reg.Add(name, m)
	if err != nil {
		s.metrics.Reject(ReasonParse)
		writeError(w, http.StatusBadRequest, ReasonParse, err)
		return
	}
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("model uploaded", "model", name, "version", version)
	}
	writeJSON(w, http.StatusCreated, struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
	}{Name: name, Version: version})
}

// predictScratch is the pooled per-request workspace of the batch
// predict path: one reusable design row (its rates map cleared per
// row) so a large batch resolves the model once and allocates no
// per-row state.
type predictScratch struct {
	row acquisition.Row
}

var predictPool = sync.Pool{
	New: func() any {
		return &predictScratch{row: acquisition.Row{Rates: make(map[pmu.EventID]float64, 8)}}
	},
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/v1/predict")
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, ReasonParse, errors.New("serve: POST required"))
		return
	}
	if herr := s.gate.admit("/v1/predict"); herr != nil {
		s.gate.setRetryAfter(w.Header())
		writeError(w, herr.status, herr.reason, herr.err)
		return
	}
	defer s.gate.leave()
	var req predictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.Reject(ReasonOversized)
			writeError(w, http.StatusRequestEntityTooLarge, ReasonOversized,
				fmt.Errorf("serve: request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		s.metrics.Reject(ReasonParse)
		writeError(w, http.StatusBadRequest, ReasonParse, fmt.Errorf("serve: decoding request: %w", err))
		return
	}
	// One registry snapshot, resolved once for the whole batch.
	m, err := s.reg.Get(req.Model)
	if err != nil {
		writeError(w, http.StatusNotFound, ReasonParse, err)
		return
	}
	if len(req.Rows) == 0 {
		s.metrics.Reject(ReasonParse)
		writeError(w, http.StatusBadRequest, ReasonParse, errors.New("serve: request has no rows"))
		return
	}
	resp := predictResponse{Model: req.Model, N: len(req.Rows), Watts: make([]float64, 0, len(req.Rows))}
	if tc, ok := obs.TraceFromContext(r.Context()); ok {
		resp.TraceID = tc.TraceID
	}
	sc := predictPool.Get().(*predictScratch)
	defer predictPool.Put(sc)
	for i := range req.Rows {
		reason, err := convertRowInto(req.Rows[i], m, &sc.row)
		if err != nil {
			s.metrics.Reject(reason)
			writeError(w, http.StatusBadRequest, reason,
				fmt.Errorf("serve: row %d: %w", i, err))
			return
		}
		resp.Watts = append(resp.Watts, m.Predict(&sc.row))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/v1/estimate")
	tc, _ := obs.TraceFromContext(r.Context())
	at := s.flightrec.Lookup(tc.TraceID)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, ReasonParse, errors.New("serve: POST required"))
		return
	}
	if herr := s.gate.admit("/v1/estimate"); herr != nil {
		at.Error(herr.err.Error())
		s.gate.setRetryAfter(w.Header())
		writeError(w, herr.status, herr.reason, herr.err)
		return
	}
	defer s.gate.leave()
	q := r.URL.Query()
	ref, err := s.reg.Resolve(q.Get("model"))
	if err != nil {
		at.Error(err.Error())
		writeError(w, http.StatusNotFound, ReasonParse, err)
		return
	}
	at.SetModel(ref.Key())
	m := ref.Model
	alpha := s.cfg.DefaultAlpha
	if a := q.Get("alpha"); a != "" {
		alpha, err = strconv.ParseFloat(a, 64)
		if err != nil || !(alpha > 0) || alpha > 1 {
			s.metrics.Reject(ReasonParse)
			writeError(w, http.StatusBadRequest, ReasonParse,
				fmt.Errorf("serve: alpha %q outside (0,1]", a))
			return
		}
	}
	// ?refit=N opts the session into streaming refit over a sliding
	// window of N labelled samples (?refit=0 forces frozen); absent, the
	// server default applies. Window-size feasibility (N must exceed the
	// model's design width) is core.NewRefitter's check, surfaced below
	// as a 400.
	refitWindow := s.cfg.RefitWindow
	if rv := q.Get("refit"); rv != "" {
		n, rerr := strconv.Atoi(rv)
		if rerr != nil || n < 0 {
			s.metrics.Reject(ReasonParse)
			writeError(w, http.StatusBadRequest, ReasonParse,
				fmt.Errorf("serve: refit %q is not a non-negative window size", rv))
			return
		}
		refitWindow = n
	}

	// A named session persists across requests (and is subject to idle
	// eviction and the one-stream backpressure limit); an anonymous
	// stream gets a private estimator that dies with the request.
	var stream *core.StreamSession
	var qtrack *quality.Tracker // per-session residual window (named sessions)
	stripe := 0                 // latency-histogram stripe = the session's shard
	sessionID := q.Get("session")
	if sessionID != "" {
		at.SetSession(sessionID)
		key := sessionKey{model: q.Get("model"), id: sessionID}
		sess, herr := s.sessions.acquire(key, m, alpha, refitWindow)
		if herr != nil {
			at.Error(herr.err.Error())
			writeError(w, herr.status, herr.reason, herr.err)
			return
		}
		defer s.sessions.release(key)
		stream = sess.stream
		qtrack = sess.quality
		stripe = s.sessions.shardIndex(key)
	} else {
		stream, err = core.NewStreamSessionRefit(m, alpha, refitWindow)
		if err != nil {
			writeError(w, http.StatusBadRequest, ReasonParse, err)
			return
		}
	}
	// Quality tracking observes every labelled sample prequentially
	// (the estimate is computed before the label is folded into any
	// refit), aggregated per served model version. It is a pure
	// observer: the estimate stream is bit-identical with it disabled.
	var qmon *quality.Monitor
	if s.quality != nil {
		qmon = s.quality.monitor(ref.Key())
	}

	// NDJSON estimation reads the request body and writes the response
	// concurrently; without full duplex the HTTP/1.x server closes the
	// unread body at the first response write.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	// In full-duplex mode the server no longer discards an unread body
	// on handler return, so an early exit (oversized line, rejected
	// first sample) must drain what the client already sent — bounded,
	// to keep a hostile stream from pinning the handler.
	defer io.Copy(io.Discard, io.LimitReader(r.Body, int64(s.cfg.MaxLineBytes)))
	// rejectEarly answers a stream refused before its 200 header and
	// closes the connection. Body bytes may still be unread: net/http's
	// post-handler close drains them to EOF, which in full-duplex mode
	// starts the connection's background read, and on a kept-alive
	// connection that read races the next request's (a recovered
	// "invalid concurrent Body.Read call" panic that resets it).
	rejectEarly := func(reason string, err error) {
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusBadRequest, reason, err)
	}

	bufCap := 64 * 1024
	if bufCap > s.cfg.MaxLineBytes {
		bufCap = s.cfg.MaxLineBytes
	}
	if bufCap < 16 {
		bufCap = 16
	}
	br := bufio.NewReaderSize(r.Body, bufCap)
	// Responses are buffered and flushed when the input is drained
	// (br.Buffered() == 0): an interactive client that sent one sample
	// and is waiting gets its row immediately, while a batch upload
	// gets one coalesced write per batch instead of one syscall and
	// chunk frame per sample — the dominant per-sample cost at fleet
	// scale. LegacyServing restores the seed's flush-per-sample.
	bw := bufio.NewWriterSize(w, 32*1024)
	defer bw.Flush()
	enc := json.NewEncoder(bw)
	streaming := false // true once the 200 header is out
	// flushIfDrained is the one flush decision per record: legacy mode
	// reproduces the seed's write-and-flush per sample; the default
	// path coalesces output until the reader has drained everything the
	// client sent, so a batch costs one write while a waiting
	// interactive client still sees its row immediately.
	flushIfDrained := func() {
		if streaming && (s.cfg.LegacyServing || br.Buffered() == 0) {
			bw.Flush()
			rc.Flush()
		}
	}
	var ps parseScratch
	var lineBuf []byte
	var encBuf []byte // reusable fast-encode scratch (encode_fast.go)
	// Per-sample stage timings exist for the flight recorder; when this
	// request isn't being recorded, skip the clock reads (two per
	// sample — measurable at fleet rates). The push is still timed
	// unconditionally: its latency feeds the estimate histogram.
	tracing := at != nil
	// Refit bookkeeping: version/rebuild counters are cumulative on the
	// session, so metric deltas are taken against the values seen at
	// request start (correct across reconnects to a named session).
	lastVersion := stream.ModelVersion()
	lastRebuilds := stream.RefitRebuilds()
	var readErr error
	for readErr == nil {
		var line []byte
		line, readErr = readLine(br, s.cfg.MaxLineBytes, &lineBuf)
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			flushIfDrained()
			continue
		}
		var stageStart time.Time
		if tracing {
			stageStart = time.Now()
		}
		var cs core.CounterSample
		var powerW *float64
		var reason string
		var err error
		if s.cfg.LegacyServing {
			cs, powerW, reason, err = parseSample(line, m)
		} else {
			cs, powerW, reason, err = parseSampleInto(line, &ps)
		}
		if tracing {
			at.Stage(stageParse, time.Since(stageStart))
		}
		if err == nil {
			start := time.Now()
			var est core.StreamEstimate
			var perr error
			labelled := powerW != nil && stream.Refitting()
			if labelled {
				est, perr = stream.PushLabeled(cs, *powerW)
			} else {
				est, perr = stream.Push(cs)
			}
			if perr == nil {
				pushD := time.Since(start)
				s.metrics.Estimate(stripe, pushD)
				if tracing {
					at.Sample(stagePush, pushD)
				}
				if powerW != nil {
					if tracing {
						stageStart = time.Now()
					}
					if qmon != nil {
						qmon.Observe(quality.Observation{
							TimeNs:       cs.TimeNs,
							Session:      sessionID,
							ModelVersion: est.ModelVersion,
							TraceID:      tc.TraceID,
							FreqMHz:      cs.FreqMHz,
							VoltageV:     cs.VoltageV,
							Rates:        cs.Rates,
							PredictedW:   est.InstantW,
							ObservedW:    *powerW,
						})
					}
					if qtrack != nil {
						qtrack.Observe(est.InstantW, *powerW)
					}
					if tracing {
						at.Stage(stageQuality, time.Since(stageStart))
					}
				}
				if labelled {
					s.metrics.RefitSample(math.Abs(est.InstantW - *powerW))
					if v := stream.ModelVersion(); v > lastVersion {
						s.metrics.Refits(v - lastVersion)
						lastVersion = v
					}
					if rb := stream.RefitRebuilds(); rb > lastRebuilds {
						s.metrics.RefitRebuilds(rb - lastRebuilds)
						lastRebuilds = rb
					}
				}
				if !streaming {
					w.Header().Set("Content-Type", "application/x-ndjson")
					streaming = true
				}
				if tracing {
					stageStart = time.Now()
				}
				we := wireEstimate{
					TimeNs:       est.TimeNs,
					InstantW:     est.InstantW,
					SmoothedW:    est.SmoothedW,
					TotalJ:       est.TotalJoules,
					Samples:      est.Samples,
					ModelVersion: est.ModelVersion,
					TraceID:      tc.TraceID,
				}
				if s.cfg.LegacyServing || !writeEstimateFast(bw, &encBuf, we) {
					enc.Encode(we)
				}
				flushIfDrained()
				if tracing {
					at.Stage(stageEncode, time.Since(stageStart))
				}
				continue
			}
			reason, err = classifyPushError(perr), perr
		}
		// Rejected sample: the estimator state is untouched (core
		// validates before mutating). Before any output this is an
		// HTTP-level rejection; mid-stream it becomes an NDJSON error
		// record and the stream continues.
		s.metrics.Reject(reason)
		at.Event("reject", reason, 0)
		if !streaming {
			at.Error(err.Error())
			rejectEarly(reason, err)
			return
		}
		enc.Encode(wireError{Error: err.Error(), Reason: reason, TraceID: tc.TraceID})
		flushIfDrained()
	}
	at.SetModelVersion(stream.ModelVersion())
	if readErr != io.EOF {
		reason := ReasonParse
		if errors.Is(readErr, bufio.ErrTooLong) {
			reason = ReasonOversized
		}
		s.metrics.Reject(reason)
		at.Error(readErr.Error())
		if !streaming {
			rejectEarly(reason, fmt.Errorf("serve: reading stream: %w", readErr))
			return
		}
		enc.Encode(wireError{Error: readErr.Error(), Reason: reason, TraceID: tc.TraceID})
	}
	if !streaming {
		// Empty body: report the session totals (zero for a fresh
		// session) rather than an empty 200 with no content type.
		joules, samples := stream.Totals()
		writeJSON(w, http.StatusOK, struct {
			Samples uint64  `json:"samples"`
			TotalJ  float64 `json:"total_j"`
		}{Samples: samples, TotalJ: joules})
	}
}

// --- conversion and validation ---------------------------------------

// validFreqMHz converts a wire-side frequency to the integer MHz the
// core types carry, rejecting everything an int field used to let
// through or mangle: NaN and ±Inf (NaN compares false against any
// bound, so `freq <= 0` alone does not catch it), non-positive,
// fractional, and values beyond any plausible clock (which would
// overflow the int conversion).
func validFreqMHz(f float64) (int, error) {
	const maxMHz = 1 << 20 // ~1 THz; far above any CPU clock
	if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 || f != math.Trunc(f) || f > maxMHz {
		return 0, fmt.Errorf("invalid frequency %v MHz (want a positive integer)", f)
	}
	return int(f), nil
}

// readLine returns the next newline-delimited line from br, without
// the terminator. Lines that straddle the read buffer spill into
// *lineBuf (reused across calls, so steady-state reads allocate
// nothing); a line longer than max bytes returns bufio.ErrTooLong —
// the same classification the seed's Scanner produced. A final
// unterminated line arrives alongside io.EOF.
func readLine(br *bufio.Reader, max int, lineBuf *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == nil {
		line = line[:len(line)-1]
		if len(line) > max {
			return nil, bufio.ErrTooLong
		}
		return line, nil
	}
	if err != bufio.ErrBufferFull {
		if len(line) > max {
			return nil, bufio.ErrTooLong
		}
		return line, err
	}
	*lineBuf = append((*lineBuf)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		*lineBuf = append(*lineBuf, line...)
		if len(*lineBuf) > max+1 { // +1: a terminator may still be attached
			return nil, bufio.ErrTooLong
		}
	}
	buf := *lineBuf
	if err == nil {
		buf = buf[:len(buf)-1]
	}
	if len(buf) > max {
		return nil, bufio.ErrTooLong
	}
	return buf, err
}

// parseScratch is the per-stream parse workspace of the default
// serving path: the wire struct's string-keyed map and the resolved
// event-id map are reused across lines, so a steady-state stream
// allocates no per-sample maps. Reuse is safe because every consumer
// of a pushed sample copies the rates it keeps — core's estimators
// snapshot into their design vectors and the quality observers copy
// before retaining — so nothing downstream holds the scratch map once
// the push returns.
type parseScratch struct {
	ws    wireSample
	rates map[pmu.EventID]float64
	// Fast-path workspace (parse_fast.go): rate names borrowed from
	// the line buffer, parallel to their values. Valid only until the
	// next readLine call.
	rateNames [][]byte
	rateVals  []float64
	// Resolved-name cache: a stream sends the same rate keys on every
	// line, so remember the previous line's names (copied out of the
	// transient line buffer, 0xff-separated) and their resolved event
	// ids. On a hit the per-line work drops to value stores into the
	// already-keyed rates map — no name lookups, no map rebuild.
	// cacheValid is the invariant flag: true only while ps.rates'
	// key set equals idCache (the slow path and failed rebuilds break
	// that and must clear it).
	keyCache   []byte
	idCache    []pmu.EventID
	cacheValid bool
}

// namesMatchCache reports whether the just-parsed rate names are
// byte-identical (count, order, spelling) to the cached previous line.
func (ps *parseScratch) namesMatchCache() bool {
	if !ps.cacheValid || len(ps.idCache) != len(ps.rateNames) {
		return false
	}
	k := ps.keyCache
	for _, nb := range ps.rateNames {
		if len(k) < len(nb)+1 || !bytes.Equal(k[:len(nb)], nb) || k[len(nb)] != 0xff {
			return false
		}
		k = k[len(nb)+1:]
	}
	return len(k) == 0
}

// parseSampleInto is parseSample with a reusable workspace: same wire
// format, same rejection reasons, but the returned sample's Rates map
// is valid only until the next call. The common case is served by the
// hand scanner in parse_fast.go; anything it cannot prove identical
// to encoding/json semantics falls through to the decoder below, so
// all rejections keep their legacy messages and ordering.
func parseSampleInto(line []byte, ps *parseScratch) (core.CounterSample, *float64, string, error) {
	if parseSampleFast(line, ps) {
		if cs, powerW, ok := finishSampleFast(ps); ok {
			return cs, powerW, "", nil
		}
	}
	// Reset the wire struct but keep the decoded map's backing storage:
	// json reuses a non-nil map (cleared below) and would leave absent
	// fields stale otherwise.
	ps.ws = wireSample{Rates: ps.ws.Rates}
	if ps.ws.Rates != nil {
		clear(ps.ws.Rates)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ps.ws); err != nil {
		return core.CounterSample{}, nil, ReasonParse, fmt.Errorf("serve: decoding sample: %w", err)
	}
	freq, err := validFreqMHz(ps.ws.FreqMHz)
	if err != nil {
		return core.CounterSample{}, nil, ReasonBadOperPt, fmt.Errorf("serve: %w", err)
	}
	// The decoder path is about to rewrite ps.rates with its own key
	// set; the fast path's name cache no longer describes the map.
	ps.cacheValid = false
	if ps.rates == nil {
		ps.rates = make(map[pmu.EventID]float64, len(ps.ws.Rates))
	} else {
		clear(ps.rates)
	}
	for name, v := range ps.ws.Rates {
		ev, err := pmu.ByName(name)
		if err != nil {
			return core.CounterSample{}, nil, ReasonUnknownEv, fmt.Errorf("serve: sample references unknown event %q", name)
		}
		ps.rates[ev.ID] = v
	}
	return core.CounterSample{
		TimeNs:   ps.ws.TimeNs,
		FreqMHz:  freq,
		VoltageV: ps.ws.VoltageV,
		Rates:    ps.rates,
	}, ps.ws.PowerW, "", nil
}

// parseSample decodes one NDJSON line and resolves event names. Rate
// semantics (finite, non-negative, covering the model's events) are
// the estimator's to enforce; this layer rejects what the estimator
// cannot see: unparseable JSON, unknown event names, and a frequency
// that does not survive the float→int conversion.
func parseSample(line []byte, m *core.Model) (core.CounterSample, *float64, string, error) {
	var ws wireSample
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ws); err != nil {
		return core.CounterSample{}, nil, ReasonParse, fmt.Errorf("serve: decoding sample: %w", err)
	}
	freq, err := validFreqMHz(ws.FreqMHz)
	if err != nil {
		return core.CounterSample{}, nil, ReasonBadOperPt, fmt.Errorf("serve: %w", err)
	}
	rates := make(map[pmu.EventID]float64, len(ws.Rates))
	for name, v := range ws.Rates {
		ev, err := pmu.ByName(name)
		if err != nil {
			return core.CounterSample{}, nil, ReasonUnknownEv, fmt.Errorf("serve: sample references unknown event %q", name)
		}
		rates[ev.ID] = v
	}
	return core.CounterSample{
		TimeNs:   ws.TimeNs,
		FreqMHz:  freq,
		VoltageV: ws.VoltageV,
		Rates:    rates,
	}, ws.PowerW, "", nil
}

// convertRow maps a wire row to a fresh acquisition.Row, enforcing
// the same validity rules the streaming path gets from the estimator.
func convertRow(wr wireRow, m *core.Model) (*acquisition.Row, string, error) {
	var row acquisition.Row
	reason, err := convertRowInto(wr, m, &row)
	if err != nil {
		return nil, reason, err
	}
	return &row, "", nil
}

// convertRowInto is convertRow into a caller-owned row whose rates
// map is reused (the batch-predict scratch): a large batch resolves
// the model once and allocates no per-row state.
func convertRowInto(wr wireRow, m *core.Model, row *acquisition.Row) (string, error) {
	freq, ferr := validFreqMHz(wr.FreqMHz)
	if ferr != nil || !(wr.VoltageV > 0) || math.IsInf(wr.VoltageV, 0) {
		return ReasonBadOperPt, fmt.Errorf("invalid operating point (freq %v MHz, voltage %v V)", wr.FreqMHz, wr.VoltageV)
	}
	if row.Rates == nil {
		row.Rates = make(map[pmu.EventID]float64, len(wr.Rates))
	} else {
		clear(row.Rates)
	}
	for name, v := range wr.Rates {
		ev, err := pmu.ByName(name)
		if err != nil {
			return ReasonUnknownEv, fmt.Errorf("unknown event %q", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return ReasonBadRate, fmt.Errorf("invalid rate %v for event %s", v, name)
		}
		row.Rates[ev.ID] = v
	}
	for _, id := range m.Events {
		if _, ok := row.Rates[id]; !ok {
			return ReasonMissingEv, fmt.Errorf("missing model event %s", pmu.Lookup(id).Name)
		}
	}
	row.FreqMHz = freq
	row.VoltageV = wr.VoltageV
	return "", nil
}

// classifyPushError maps a core.OnlineEstimator rejection to its
// metrics reason.
func classifyPushError(err error) string {
	switch {
	case errors.Is(err, core.ErrOutOfOrder):
		return ReasonOutOfOrder
	case errors.Is(err, core.ErrMissingEvent):
		return ReasonMissingEv
	case errors.Is(err, core.ErrBadRate):
		return ReasonBadRate
	case errors.Is(err, core.ErrBadOperatingPoint):
		return ReasonBadOperPt
	case errors.Is(err, core.ErrBadPower):
		return ReasonBadPower
	}
	return ReasonParse
}

// --- response helpers ------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, reason string, err error) {
	writeJSON(w, status, wireError{Error: err.Error(), Reason: reason})
}
