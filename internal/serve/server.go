package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"pmcpower/internal/buildinfo"
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
	// Default 5 minutes. The janitor sweeps every IdleTTL/4, clamped to
	// [1s, 30s].
	IdleTTL time.Duration
	// MaxSessions caps live sessions; further session creation gets
	// HTTP 429. Default 1024.
	MaxSessions int
	// Shards is the session-table shard count, rounded up to a power
	// of two. Each shard has its own lock and janitor bookkeeping, so
	// concurrent streams for different clients never serialize on one
	// mutex; the per-sample latency histogram is striped the same way.
	// Default 8; 1 gives a single-lock table. pmcpowerd sets it from
	// -shards.
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
	// RetryAfter is the backoff hint stamped on shed responses
	// (rounded up to whole seconds). Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes caps the request body of the non-streaming JSON
	// endpoints (/v1/predict and model upload); an oversized body gets
	// 413. Default 8 MiB. The streaming estimate endpoint is bounded
	// per line by maxLineBytes instead.
	MaxBodyBytes int64
	// RefitWindow is the default streaming-refit window (in labelled
	// samples) applied to new estimator sessions when a client does not
	// pass ?refit=. 0 (the default) serves the frozen offline fit;
	// clients can still opt in per session with ?refit=N. pmcpowerd
	// sets it from -refit-window.
	RefitWindow int
	// Now is the clock, injectable for tests. Default time.Now.
	Now func() time.Time
	// Obs is the metrics registry the service instruments register
	// on. Default: a fresh private registry (test isolation);
	// pmcpowerd passes obs.Default() so library metrics (e.g. the
	// parallel engine's task counters) share the /metrics exposition.
	Obs *obs.Registry
	// Logger, when non-nil, receives one structured record per HTTP
	// request (method, path, status, duration_us, session id) plus
	// lifecycle events: at info for a failed request (status 400 and
	// up), at debug for any other, so the default info level logs only
	// failures. Nil disables request logging.
	Logger *slog.Logger
	// Tracer, when non-nil, records one span per HTTP request; the
	// span context is threaded into the handler. The tracer keeps
	// every span, so it suits bounded runs (tests, benchmarks); a
	// long-running daemon leaves it nil and relies on the flight
	// recorder's bounded request traces.
	Tracer *obs.Tracer
	// QualityWindow is the sliding-window size (in labelled samples)
	// for model-quality tracking per served model version. Default 256.
	QualityWindow int
	// QualityExemplars is the per-model worst-residual buffer
	// capacity served at /debug/exemplars. Default 32.
	QualityExemplars int
	// QualityThresholds configures the drift state machine (zero
	// fields take the quality package defaults).
	QualityThresholds quality.Thresholds
	// FlightRecRetain caps the ring of fully retained traces. Default
	// 64 (the obs package default). The recorder's other bounds are
	// obs constants: 128 recent request summaries, 64 events per
	// trace, and slow meaning 4 × the rolling mean duration once 32
	// requests have completed.
	FlightRecRetain int
	// FlightRecMinSlow is the absolute floor under which no request
	// counts as slow. Default 1s.
	FlightRecMinSlow time.Duration
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
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	c.Shards = shardCount(c.Shards)
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
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
	quality   *qualityHub
	flightrec *obs.FlightRecorder
	mux       *http.ServeMux

	// freeStreams holds finished estimate streams for reuse
	// (takeStream, putStream): a mutex-guarded list, not a sync.Pool,
	// so a GC never empties it and the allocation gates stay exact.
	freeMu      sync.Mutex
	freeStreams []*estimateStream

	start time.Time
	build buildinfo.Info

	stop     chan struct{}
	stopOnce sync.Once
	janitor  sync.WaitGroup
}

// New builds a Server and starts its idle-eviction janitor. Call
// Close when done.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		metrics: NewMetrics(cfg.Obs, cfg.Shards),
		start:   cfg.Now(),
		build:   buildinfo.Read(),
		stop:    make(chan struct{}),
	}
	s.flightrec = obs.NewFlightRecorder(obs.FlightRecorderConfig{
		Stages:  flightStages[:],
		Retain:  cfg.FlightRecRetain,
		MinSlow: cfg.FlightRecMinSlow,
		Now:     cfg.Now,
	})
	s.quality = newQualityHub(cfg, s.metrics, cfg.Logger, s.flightrec)
	s.sessions = newSessionManager(cfg.Shards, cfg.MaxSessions, cfg.IdleTTL, cfg.Now, s.metrics)
	s.gate = newAdmissionGate(cfg, s.metrics)
	s.metrics.SetBuildInfo(s.build.Version, s.build.GoVersion)
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

// Handler returns the root handler for an http.Server: the service
// mux wrapped in the observability middleware. Every request gets a
// trace context — adopted from an inbound W3C `traceparent` header
// (same trace id, fresh server-side span id) or minted — echoed back
// in the response's Traceparent header and threaded through the
// request context so spans, log records, NDJSON rows, quality
// observations, and the flight recorder all carry the same IDs. The
// middleware also records per-request latency histograms for the
// estimation endpoints (with the trace id as bucket exemplar), an
// optional span per request, an optional structured request log
// (failures at info, the rest at debug), and the flight-recorder
// begin/finish bracket.
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
		if i := gatedIndex(r.URL.Path); i >= 0 {
			// The request's trace id becomes the landing bucket's
			// exemplar, so a latency bucket on /debug/requests links to
			// a concrete trace.
			s.metrics.gatedLatency[i].ObserveExemplar(d.Seconds(), tc.TraceID)
			// Feed the admission gate's p99 signal. Shed responses count
			// too — their small latencies are what lets the EWMA decay
			// and admission reopen under sustained overload.
			s.gate.observe()
		}
		// A failure is worth a record at the default level; a success
		// is routine, one per request, and costs a JSON record and a
		// write only when debug logging asks for it.
		level := slog.LevelDebug
		if status >= 400 {
			level = slog.LevelInfo
		}
		if lg := s.cfg.Logger; lg != nil && lg.Enabled(ctx, level) {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"duration_us", d.Microseconds(),
				"trace_id", tc.TraceID,
				"span_id", tc.SpanID,
			}
			if id := r.URL.Query().Get("session"); id != "" {
				attrs = append(attrs, "session", id)
			}
			lg.Log(ctx, level, "request", attrs...)
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

// FlightRecorder exposes the tail-sampled request recorder —
// pmcpowerd dumps it on SIGQUIT, tests inspect it.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flightrec }

// SweepIdleSessions runs one eviction pass at the server's current
// clock and returns the number of sessions evicted. The janitor calls
// this periodically; tests call it directly with an advanced fake
// clock.
func (s *Server) SweepIdleSessions() int { return s.sessions.sweep(s.cfg.Now()) }

// Close stops the janitor. In-flight requests are the http.Server's
// concern (use its Shutdown for request draining).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.janitor.Wait()
}

func (s *Server) runJanitor() {
	defer s.janitor.Done()
	t := time.NewTicker(min(max(s.cfg.IdleTTL/4, time.Second), 30*time.Second))
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
		if alerting := s.quality.alerting(); len(alerting) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "alert: model quality degraded: %s\n", strings.Join(alerting, ", "))
			return
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
	ref, err := s.reg.Resolve(req.Model)
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
	rates := make(map[pmu.EventID]float64, len(ref.Model.Events))
	for i, row := range req.Rows {
		cs, reason, err := row.sample(rates)
		if err == nil {
			var watts float64
			if watts, err = ref.Model.Estimate(cs); err == nil {
				resp.Watts = append(resp.Watts, watts)
				continue
			}
			reason = classifyPushError(err)
		}
		s.metrics.Reject(reason)
		writeError(w, http.StatusBadRequest, reason, fmt.Errorf("serve: row %d: %w", i, err))
		return
	}
	writeJSON(w, http.StatusOK, resp)
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

// maxLineBytes caps one NDJSON input line: the per-sample
// backpressure bound.
const maxLineBytes = 1 << 20

// readLine returns the next newline-delimited line from br, without
// the terminator. Lines that straddle the read buffer spill into
// *lineBuf (reused across calls, so steady-state reads allocate
// nothing); a line longer than maxLineBytes returns bufio.ErrTooLong —
// the same classification the seed's Scanner produced. A final
// unterminated line arrives alongside io.EOF.
func readLine(br *bufio.Reader, lineBuf *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == nil {
		line = line[:len(line)-1]
		if len(line) > maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		return line, nil
	}
	if err != bufio.ErrBufferFull {
		if len(line) > maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		return line, err
	}
	*lineBuf = append((*lineBuf)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		*lineBuf = append(*lineBuf, line...)
		if len(*lineBuf) > maxLineBytes+1 { // +1: a terminator may still be attached
			return nil, bufio.ErrTooLong
		}
	}
	buf := *lineBuf
	if err == nil {
		buf = buf[:len(buf)-1]
	}
	if len(buf) > maxLineBytes {
		return nil, bufio.ErrTooLong
	}
	return buf, err
}

// parseScratch is the per-stream parse workspace of the estimate
// stream: the wire struct's string-keyed map and the resolved
// event-id map are reused across lines, so a steady-state stream
// allocates no per-sample maps. Reuse is safe because every consumer
// of a pushed sample copies the rates it keeps — core's estimators
// snapshot into their design vectors and the quality observers copy
// before retaining — so nothing downstream holds the scratch map once
// the push returns.
type parseScratch struct {
	ws    wireSample
	rates map[pmu.EventID]float64
	// staged receives the decoder's rates until its line is accepted.
	staged map[pmu.EventID]float64
	// The fast path's per-line results (parse_fast.go): the rates as
	// resolved (event, value) pairs in line order, and the power_w
	// label, kept by value so a labelled line allocates no float.
	rateIDs  []pmu.EventID
	rateVals []float64
	powerW   float64
	labelled bool
	// The line-shape cache: shape is the layout of the last line the
	// fast path accepted and resolved, and next the layout of the line
	// being scanned, swapped in once it is accepted. shapeOK is the
	// invariant flag: true only while rates' key set is the events of
	// shape's rate tokens, so a line of that shape only overwrites
	// values. A rejected line changes neither rates nor shape; a line
	// only the decoder accepts rewrites rates and clears the flag.
	shape, next lineShape
	shapeOK     bool
	// tens is the Eisel–Lemire table, fetched on the scratch's first
	// line rather than per number.
	tens *powersOfTen
}

// parseSampleInto decodes one NDJSON line and resolves event names
// into a reusable workspace; the returned sample's Rates map is valid
// only until the next call. labelled reports whether the line carries
// a power_w label, powerW is its value. Rate semantics (finite, non-negative,
// covering the model's events) are the estimator's to enforce; this
// layer rejects what the estimator cannot see: unparseable JSON,
// unknown event names, and a frequency that does not survive the
// float→int conversion. The common case is served by the hand scanner
// in parse_fast.go; anything it cannot prove identical to
// encoding/json semantics falls through to decodeSample, which owns
// every rejection message.
func parseSampleInto(line []byte, ps *parseScratch) (cs core.CounterSample, powerW float64, labelled bool, reason string, err error) {
	if hit, ok := parseSampleFast(line, ps); ok {
		if cs, ok := finishSampleFast(ps, hit); ok {
			return cs, ps.powerW, ps.labelled, "", nil
		}
	}
	return decodeSample(line, ps)
}

// decodeSample is the encoding/json route of parseSampleInto, and the
// oracle the fast scanner is fuzzed against (FuzzParseSample). It
// resolves the event names into ps.staged and swaps that in for
// ps.rates only once the line is accepted, so a rejected line leaves
// the map, and the shape cache that describes it, as they were.
func decodeSample(line []byte, ps *parseScratch) (cs core.CounterSample, powerW float64, labelled bool, reason string, err error) {
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
		return core.CounterSample{}, 0, false, ReasonParse, fmt.Errorf("serve: decoding sample: %w", err)
	}
	freq, err := validFreqMHz(ps.ws.FreqMHz)
	if err != nil {
		return core.CounterSample{}, 0, false, ReasonBadOperPt, fmt.Errorf("serve: %w", err)
	}
	if ps.staged == nil {
		ps.staged = make(map[pmu.EventID]float64, len(ps.ws.Rates))
	}
	if reason, err := resolveRates(ps.ws.Rates, ps.staged); err != nil {
		return core.CounterSample{}, 0, false, reason, fmt.Errorf("serve: %w", err)
	}
	// The line is accepted: its rates replace the map's, whose key set
	// the cached shape no longer describes.
	ps.rates, ps.staged = ps.staged, ps.rates
	ps.shapeOK = false
	if ps.ws.PowerW != nil {
		powerW, labelled = *ps.ws.PowerW, true
	}
	return core.CounterSample{
		TimeNs:   ps.ws.TimeNs,
		FreqMHz:  freq,
		VoltageV: ps.ws.VoltageV,
		Rates:    ps.rates,
	}, powerW, labelled, "", nil
}

// sample converts a predict row to the sample core.Model.Estimate
// judges: the frequency through validFreqMHz and the event names
// through resolveRates, into rates (so one map serves a whole batch).
func (wr wireRow) sample(rates map[pmu.EventID]float64) (core.CounterSample, string, error) {
	freq, err := validFreqMHz(wr.FreqMHz)
	if err != nil {
		return core.CounterSample{}, ReasonBadOperPt, err
	}
	if reason, err := resolveRates(wr.Rates, rates); err != nil {
		return core.CounterSample{}, reason, err
	}
	return core.CounterSample{FreqMHz: freq, VoltageV: wr.VoltageV, Rates: rates}, "", nil
}

// resolveRates converts a sample's rates, keyed by event name on the
// wire, into rates, keyed by event (cleared first). A stream line and
// a predict row resolve here, so a name fault reads the same on both
// endpoints whatever order the map iterates in: the lowest unknown
// name is the one named (reason unknown_event), and an event named
// under both its spellings, LST_INS and PAPI_LST_INS, is refused
// (reason parse), the lowest such event named, rather than left to
// whichever value the map visits last.
func resolveRates(names map[string]float64, rates map[pmu.EventID]float64) (reason string, err error) {
	clear(rates)
	unknown, haveUnknown := "", false
	twice := pmu.EventID(-1)
	for name, v := range names {
		ev, err := pmu.ByName(name)
		if err != nil {
			if !haveUnknown || name < unknown {
				unknown, haveUnknown = name, true
			}
			continue
		}
		if _, dup := rates[ev.ID]; dup && (twice < 0 || ev.ID < twice) {
			twice = ev.ID
		}
		rates[ev.ID] = v
	}
	if haveUnknown {
		return ReasonUnknownEv, fmt.Errorf("sample references unknown event %q", unknown)
	}
	if twice >= 0 {
		ev := pmu.Lookup(twice)
		return ReasonParse, fmt.Errorf("sample names one event twice: %q and %q", ev.Short, ev.Name)
	}
	return "", nil
}

// classifyPushError maps a core rejection (Model.Estimate, or
// StreamSession.Push) to its metrics reason.
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
	case errors.Is(err, core.ErrNonFinite):
		return ReasonNonFinite
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
