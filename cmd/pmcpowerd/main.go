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

	"pmcpower/internal/buildinfo"
	"pmcpower/internal/core"
	"pmcpower/internal/obs"
	"pmcpower/internal/pmu"
	"pmcpower/internal/quality"
	"pmcpower/internal/serve"
)

func main() {
	d, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmcpowerd:", err)
		os.Exit(2)
	}
	if d.version {
		fmt.Println(buildinfo.Format("pmcpowerd"))
		return
	}
	level, err := obs.ParseLevel(d.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmcpowerd:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	if err := run(logger, d); err != nil {
		logger.Error("fatal", "err", err.Error())
		os.Exit(1)
	}
}

// daemonFlags is the parsed command line: the serve.Config the serving
// flags bind into, and the settings main keeps for itself.
type daemonFlags struct {
	cfg             serve.Config
	modelPaths      []string
	addr, debugAddr string
	logLevel        string
	selfcal         bool
	seed            uint64
	version         bool
}

// parseFlags defines pmcpowerd's flags on fs and parses args. It
// refuses, naming the flag, a value that would make every request
// fail, and a -quality-window between 1 and quality.MinSamples−1,
// which never holds the samples drift detection needs, so a model
// would stay ok however wrong it is. A window of 0 takes the default.
func parseFlags(fs *flag.FlagSet, args []string) (*daemonFlags, error) {
	d := &daemonFlags{}
	cfg := &d.cfg
	fs.Func("model", "trained model JSON to serve (repeatable; registered under its base name)",
		func(p string) error { d.modelPaths = append(d.modelPaths, p); return nil })
	fs.StringVar(&d.addr, "addr", ":9120", "listen address")
	fs.StringVar(&d.debugAddr, "debug-addr", "", "private listener for pprof and /debug/metrics (empty = disabled)")
	fs.StringVar(&d.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&d.selfcal, "selfcal", false, "calibrate a model on the simulated platform at startup (registered as \"default\")")
	fs.Uint64Var(&d.seed, "seed", 42, "calibration seed for -selfcal")
	fs.Float64Var(&cfg.DefaultAlpha, "alpha", 1, "default EWMA smoothing factor for streams that do not pass ?alpha=")
	fs.IntVar(&cfg.RefitWindow, "refit-window", 0, "default streaming-refit window (rows) for labelled estimate streams; 0 serves frozen models (per-stream ?refit= overrides)")
	fs.DurationVar(&cfg.IdleTTL, "idle-ttl", 5*time.Minute, "evict estimator sessions idle this long")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", 1024, "cap on concurrent estimator sessions")
	fs.IntVar(&cfg.Shards, "shards", 8, "session-table shard count (rounded up to a power of two); 1 restores the single-lock table")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", 0, "cap on concurrently admitted estimate/predict requests; beyond it requests are shed with 429 (0 disables)")
	shedP99MS := fs.Float64("shed-p99-ms", 0, "shed estimate/predict requests with 503 while the p99 latency EWMA exceeds this many milliseconds (0 disables)")
	fs.DurationVar(&cfg.RetryAfter, "retry-after", time.Second, "Retry-After backoff hint stamped on shed (429/503) responses")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body-bytes", 8<<20, "cap on /v1/predict and model-upload request bodies (413 beyond)")
	fs.IntVar(&cfg.QualityWindow, "quality-window", 256, "sliding-window size (labelled samples) for model-quality tracking")
	fs.IntVar(&cfg.QualityExemplars, "quality-exemplars", 32, "worst-residual samples kept per model for /debug/exemplars")
	fs.Float64Var(&cfg.QualityThresholds.WarnMAPEPct, "quality-warn-mape", 10, "windowed MAPE %% that moves a model to drift warn (negative disables)")
	fs.Float64Var(&cfg.QualityThresholds.AlertMAPEPct, "quality-alert-mape", 20, "windowed MAPE %% that moves a model to drift alert (negative disables)")
	fs.StringVar(&cfg.FlightRecDumpPath, "flightrec-dump", "pmcpowerd-flightrec.json", "Chrome-trace file the flight recorder dumps to on SIGQUIT and drift-alert transitions (empty disables dumps)")
	fs.IntVar(&cfg.FlightRecRetain, "flightrec-retain", 64, "retained-trace ring size for slow/errored/flagged requests")
	fs.DurationVar(&cfg.FlightRecMinSlow, "flightrec-min-slow", time.Second, "absolute floor below which no request counts as slow")
	fs.BoolVar(&d.version, "version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.ShedP99 = time.Duration(*shedP99MS * float64(time.Millisecond))

	// The same check ?alpha= gets.
	if a := cfg.DefaultAlpha; !(a > 0) || a > 1 {
		return nil, fmt.Errorf("-alpha %v outside (0,1]", a)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"max-sessions", int64(cfg.MaxSessions)},
		{"max-body-bytes", cfg.MaxBodyBytes},
		{"idle-ttl", int64(cfg.IdleTTL)},
		{"refit-window", int64(cfg.RefitWindow)},
		{"quality-window", int64(cfg.QualityWindow)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("-%s %s is negative", f.name, fs.Lookup(f.name).Value)
		}
	}
	if w := cfg.QualityWindow; w > 0 && w < quality.MinSamples {
		return nil, fmt.Errorf("-quality-window %d holds fewer than the %d samples drift detection needs", w, quality.MinSamples)
	}
	return d, nil
}

func run(logger *slog.Logger, d *daemonFlags) error {
	start := time.Now()
	reg := serve.NewRegistry()
	for _, p := range d.modelPaths {
		name, version, err := reg.LoadFile(p)
		if err != nil {
			return err
		}
		logger.Info("model loaded", "path", p, "name", name, "version", version)
	}
	if d.selfcal {
		m, err := core.Calibrate(d.seed)
		if err != nil {
			return fmt.Errorf("self-calibration: %w", err)
		}
		logger.Info("selected counters", "events", pmu.ShortNames(m.Events))
		if _, err := reg.Add("default", m); err != nil {
			return err
		}
		logger.Info("self-calibrated model registered", "name", "default", "version", 1, "model", m.String())
	}
	if len(reg.List()) == 0 {
		return errors.New("no models: pass -model model.json (train one with `estimate -train model.json`) or -selfcal")
	}

	cfg := d.cfg
	cfg.Registry = reg
	cfg.Obs = obs.Default()
	cfg.Logger = logger
	srv := serve.New(cfg)
	defer srv.Close()

	addr, debugAddr := d.addr, d.debugAddr
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
	if dump := cfg.FlightRecDumpPath; dump != "" {
		quitc := make(chan os.Signal, 1)
		signal.Notify(quitc, syscall.SIGQUIT)
		defer signal.Stop(quitc)
		go func() {
			for range quitc {
				if err := srv.FlightRecorder().WriteFile(dump); err != nil {
					logger.Error("flight-recorder dump failed", "path", dump, "err", err.Error())
					continue
				}
				total, kept := srv.FlightRecorder().Stats()
				logger.Info("flight-recorder dump written",
					"path", dump, "requests_total", total, "retained_total", kept)
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
