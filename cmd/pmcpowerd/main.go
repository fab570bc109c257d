// Command pmcpowerd serves trained Equation-1 power models as an
// always-on HTTP monitoring service — the deployment the paper
// motivates: counter-fed real-time power information for power
// management.
//
// Usage:
//
//	pmcpowerd -model model.json [-model other.json] [-addr :9120]
//	pmcpowerd -selfcal [-addr :9120]   # calibrate a demo model first
//
// Endpoints:
//
//	GET  /healthz               readiness (503 with no models; ?deep=1 also fails on drift alert)
//	GET  /v1/models             registered models (name, version, events, R²)
//	GET  /v1/status             service + model-quality status document (pmcpowertop polls this)
//	POST /v1/predict            batch prediction over JSON rows
//	POST /v1/estimate           streaming NDJSON estimation
//	GET  /debug/exemplars       worst-residual labelled samples per model
//	GET  /debug/requests        in-flight + recent requests with trace IDs and stage timings
//	GET  /debug/flightrec       retained traces as a Chrome trace_event document
//	GET  /metrics               Prometheus text metrics (shared obs registry)
//
// /v1/estimate reads one JSON counter sample per line and writes one
// estimate per line; ?session=ID keeps estimator state across
// requests, ?alpha=0.3 sets the EWMA factor, ?model=name@2 pins a
// model version. Samples carrying a measured power_w feed the
// model-quality tracker (windowed MAPE, bias, error quantiles, drift
// state) regardless of whether streaming refit is enabled.
//
// Observability: logs are structured JSON on stderr (-log-level
// debug|info|warn|error). The request log writes a failed request
// (status 400 and up) at info and a successful one at debug, so at the
// default level it holds failures only; -log-level debug adds one
// record per successful request. With -debug-addr a second, private
// listener serves net/http/pprof under /debug/pprof/ and the metrics
// exposition under /debug/metrics — profiling never shares the public
// port.
//
// Request tracing: every request carries a W3C trace context (adopted
// from an inbound `traceparent` header or minted) that appears in the
// Traceparent response header, log records, NDJSON rows, and quality
// events. A tail-sampled flight recorder retains full traces for
// slow, errored, or quality-flagged requests; SIGQUIT and drift-alert
// transitions dump them as a Chrome-trace file (-flightrec-dump,
// inspectable with tracecheck or chrome://tracing).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/buildinfo"
	"pmcpower/internal/core"
	"pmcpower/internal/obs"
	"pmcpower/internal/pmu"
	"pmcpower/internal/quality"
	"pmcpower/internal/serve"
	"pmcpower/internal/workloads"
)

func main() {
	var modelPaths []string
	flag.Func("model", "trained model JSON to serve (repeatable; registered under its base name)",
		func(p string) error { modelPaths = append(modelPaths, p); return nil })
	addr := flag.String("addr", ":9120", "listen address")
	debugAddr := flag.String("debug-addr", "", "private listener for pprof and /debug/metrics (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	selfcal := flag.Bool("selfcal", false, "calibrate a model on the simulated platform at startup (registered as \"default\")")
	seed := flag.Uint64("seed", 42, "calibration seed for -selfcal")
	alpha := flag.Float64("alpha", 1, "default EWMA smoothing factor for streams that do not pass ?alpha=")
	refitWindow := flag.Int("refit-window", 0, "default streaming-refit window (rows) for labelled estimate streams; 0 serves frozen models (per-stream ?refit= overrides)")
	idleTTL := flag.Duration("idle-ttl", 5*time.Minute, "evict estimator sessions idle this long")
	maxSessions := flag.Int("max-sessions", 1024, "cap on concurrent estimator sessions")
	shards := flag.Int("shards", 8, "session-table shard count (rounded up to a power of two); 1 restores the single-lock table")
	maxInflight := flag.Int("max-inflight", 0, "cap on concurrently admitted estimate/predict requests; beyond it requests are shed with 429 (0 disables)")
	shedP99MS := flag.Float64("shed-p99-ms", 0, "shed estimate/predict requests with 503 while the p99 latency EWMA exceeds this many milliseconds (0 disables)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After backoff hint stamped on shed (429/503) responses")
	maxBodyBytes := flag.Int64("max-body-bytes", 8<<20, "cap on /v1/predict and model-upload request bodies (413 beyond)")
	qualityWindow := flag.Int("quality-window", 256, "sliding-window size (labelled samples) for model-quality tracking")
	qualityExemplars := flag.Int("quality-exemplars", 32, "worst-residual samples kept per model for /debug/exemplars")
	warnMAPE := flag.Float64("quality-warn-mape", 10, "windowed MAPE %% that moves a model to drift warn (negative disables)")
	alertMAPE := flag.Float64("quality-alert-mape", 20, "windowed MAPE %% that moves a model to drift alert (negative disables)")
	flightRecDump := flag.String("flightrec-dump", "pmcpowerd-flightrec.json", "Chrome-trace file the flight recorder dumps to on SIGQUIT and drift-alert transitions (empty disables dumps)")
	flightRecRetain := flag.Int("flightrec-retain", 0, "retained-trace ring size for slow/errored/flagged requests (0 = default 64)")
	flightRecMinSlow := flag.Duration("flightrec-min-slow", 0, "absolute floor below which no request counts as slow (0 = default 1s)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Format("pmcpowerd"))
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmcpowerd:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	opts := options{
		modelPaths:       modelPaths,
		addr:             *addr,
		debugAddr:        *debugAddr,
		selfcal:          *selfcal,
		seed:             *seed,
		alpha:            *alpha,
		refitWindow:      *refitWindow,
		idleTTL:          *idleTTL,
		maxSessions:      *maxSessions,
		shards:           *shards,
		maxInflight:      *maxInflight,
		shedP99:          time.Duration(*shedP99MS * float64(time.Millisecond)),
		retryAfter:       *retryAfter,
		maxBodyBytes:     *maxBodyBytes,
		qualityWindow:    *qualityWindow,
		qualityExemplars: *qualityExemplars,
		warnMAPE:         *warnMAPE,
		alertMAPE:        *alertMAPE,
		flightRecDump:    *flightRecDump,
		flightRecRetain:  *flightRecRetain,
		flightRecMinSlow: *flightRecMinSlow,
	}
	if err := run(logger, opts); err != nil {
		logger.Error("fatal", "err", err.Error())
		os.Exit(1)
	}
}

// options is the parsed flag set.
type options struct {
	modelPaths       []string
	addr, debugAddr  string
	selfcal          bool
	seed             uint64
	alpha            float64
	refitWindow      int
	idleTTL          time.Duration
	maxSessions      int
	shards           int
	maxInflight      int
	shedP99          time.Duration
	retryAfter       time.Duration
	maxBodyBytes     int64
	qualityWindow    int
	qualityExemplars int
	warnMAPE         float64
	alertMAPE        float64
	flightRecDump    string
	flightRecRetain  int
	flightRecMinSlow time.Duration
}

func run(logger *slog.Logger, opts options) error {
	modelPaths, addr, debugAddr := opts.modelPaths, opts.addr, opts.debugAddr
	selfcal, seed := opts.selfcal, opts.seed
	start := time.Now()
	reg := serve.NewRegistry()
	for _, p := range modelPaths {
		name, version, err := reg.LoadFile(p)
		if err != nil {
			return err
		}
		logger.Info("model loaded", "path", p, "name", name, "version", version)
	}
	if selfcal {
		m, err := calibrate(logger, seed)
		if err != nil {
			return fmt.Errorf("self-calibration: %w", err)
		}
		if _, err := reg.Add("default", m); err != nil {
			return err
		}
		logger.Info("self-calibrated model registered", "name", "default", "version", 1, "model", m.String())
	}
	if len(reg.List()) == 0 {
		return errors.New("no models: pass -model model.json (train one with `estimate -train model.json`) or -selfcal")
	}

	srv := serve.New(serve.Config{
		Registry:         reg,
		DefaultAlpha:     opts.alpha,
		RefitWindow:      opts.refitWindow,
		IdleTTL:          opts.idleTTL,
		MaxSessions:      opts.maxSessions,
		Shards:           opts.shards,
		MaxInFlight:      opts.maxInflight,
		ShedP99:          opts.shedP99,
		RetryAfter:       opts.retryAfter,
		MaxBodyBytes:     opts.maxBodyBytes,
		Obs:              obs.Default(),
		Logger:           logger,
		QualityWindow:    opts.qualityWindow,
		QualityExemplars: opts.qualityExemplars,
		QualityThresholds: quality.Thresholds{
			WarnMAPEPct:  opts.warnMAPE,
			AlertMAPEPct: opts.alertMAPE,
		},
		FlightRecRetain:   opts.flightRecRetain,
		FlightRecMinSlow:  opts.flightRecMinSlow,
		FlightRecDumpPath: opts.flightRecDump,
	})
	defer srv.Close()

	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 2)
	go func() {
		logger.Info("listening", "addr", addr)
		errc <- httpSrv.ListenAndServe()
	}()

	var debugSrv *http.Server
	if debugAddr != "" {
		debugSrv = &http.Server{Addr: debugAddr, Handler: obs.DebugMux(obs.Default())}
		go func() {
			logger.Info("debug listener", "addr", debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("debug listener: %w", err)
			}
		}()
	}

	// SIGQUIT dumps the flight recorder without stopping the daemon —
	// the "what just happened" escape hatch when the service misbehaves
	// but must keep serving.
	if opts.flightRecDump != "" {
		quitc := make(chan os.Signal, 1)
		signal.Notify(quitc, syscall.SIGQUIT)
		defer signal.Stop(quitc)
		go func() {
			for range quitc {
				if err := srv.FlightRecorder().WriteFile(opts.flightRecDump); err != nil {
					logger.Error("flight-recorder dump failed", "path", opts.flightRecDump, "err", err.Error())
					continue
				}
				total, kept := srv.FlightRecorder().Stats()
				logger.Info("flight-recorder dump written",
					"path", opts.flightRecDump, "requests_total", total, "retained_total", kept)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Shutdown(shutdownCtx)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("shutdown complete",
		"uptime_s", time.Since(start).Seconds(),
		"requests_served", srv.Metrics().TotalRequests())
	return nil
}

// calibrate trains a six-counter model on the simulated platform —
// the same selection-then-training flow as `estimate -train`, for
// serving without a pre-trained document.
func calibrate(logger *slog.Logger, seed uint64) (*core.Model, error) {
	selDS, err := acquisition.Acquire(acquisition.Options{Seed: seed}, workloads.Active(), []int{2400})
	if err != nil {
		return nil, err
	}
	steps, err := core.SelectEvents(selDS.Rows, core.SelectOptions{Count: 6})
	if err != nil {
		return nil, err
	}
	events := core.Events(steps)
	logger.Info("selected counters", "events", pmu.ShortNames(events))
	full, err := acquisition.Acquire(acquisition.Options{Seed: seed, Events: events},
		workloads.Active(), []int{1200, 1600, 2000, 2400, 2600})
	if err != nil {
		return nil, err
	}
	return core.Train(full.Rows, events, core.TrainOptions{})
}
