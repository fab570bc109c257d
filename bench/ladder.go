package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"pmcpower/internal/core"
	"pmcpower/internal/obs"
	"pmcpower/internal/quality"
	"pmcpower/internal/serve"
)

// The ladder replays the same seeded requests through each layer's
// public entry point, one rung at a time and single-goroutine:
//
//	core.push          core.StreamSession.Push
//	core.push_labeled  core.StreamSession.PushLabeled (refit window 128)
//	quality.observe    quality.Monitor.Observe + quality.Tracker.Observe
//	serve.engine       serve.Server.EstimateSample
//	serve.handler      serve.Server.Handler().ServeHTTP, no socket
//	http               one keep-alive connection to the real daemon
//
// The chain core.push → serve.engine → serve.handler → http adds one
// layer per rung, so the difference between neighbours is the cost of
// the layer added. Allocations are counted in the bench process, so
// the http rung's are the client's: the daemon is another process.

// ladderSamples bounds the samples a rung pass replays, and
// ladderMaxRequests the requests, so every rung pass stays well under
// a second on the reference machine.
const (
	ladderSamples     = 20000
	ladderMaxRequests = 4000
	ladderPasses      = 5
	ladderRefit       = 128
)

// rung is one row of the ladder report.
type rung struct {
	Name            string  `json:"name"`
	NsPerSample     float64 `json:"ns_per_sample"`
	AllocsPerSample float64 `json:"allocs_per_sample"`
	// DeltaNs is the cost over the previous rung of the chain.
	DeltaNs float64 `json:"delta_ns,omitempty"`
}

type ladderReq struct{ sess, first, n int }

type ladder struct {
	cfg      *config
	w        streamWorkload
	base     string
	sessions []*session
	reqs     []ladderReq
	samples  [][]core.CounterSample
	powers   [][]float64
	preds    [][]float64 // PushLabeled estimates, for the quality rung
	bodies   [][]byte
	nSamples int
	pass     int // unique pass number, for fresh session names
	// daemonSessions are the http rung's sessions. They live on the
	// daemon across passes (its session cap forbids fresh ones per
	// pass), so each pass continues their timelines where the last
	// stopped.
	daemonSessions []*session
}

// rungFn prepares pass p of a rung outside the clock. run executes
// the timed part, recording a span per request when ctx is non-nil;
// done releases the pass's resources and verifies its output.
type rungFn func(p int) (run func(ctx context.Context) error, done func() error, err error)

// runLadder measures every rung on w's traffic against the daemon d
// and records the per-layer metrics on res.
func runLadder(cfg *config, w streamWorkload, d *daemon, res *result) error {
	l := &ladder{cfg: cfg, w: w, base: d.base, sessions: w.newSessions(cfg)}
	for _, s := range l.sessions {
		l.daemonSessions = append(l.daemonSessions, s.renamed("ladder-"+s.name))
	}
	nreq := max(1, min(cfg.scaled(ladderSamples)/w.batch, cfg.scaled(ladderMaxRequests)))
	for k := 0; k < nreq; k++ {
		s := k % len(l.sessions)
		first := (k / len(l.sessions)) * w.batch
		l.reqs = append(l.reqs, ladderReq{s, first, w.batch})
		sess := l.sessions[s]
		var css []core.CounterSample
		var pw []float64
		for j := first; j < first+w.batch; j++ {
			cs, p := sess.counterSample(j, cfg.cal.events)
			css = append(css, cs)
			pw = append(pw, p)
		}
		l.samples = append(l.samples, css)
		l.powers = append(l.powers, pw)
		l.preds = append(l.preds, make([]float64, w.batch))
		l.bodies = append(l.bodies, sess.appendBody(nil, first, w.batch))
		l.nSamples += w.batch
	}

	chain := []struct {
		name string
		fn   rungFn
	}{
		{"core.push", l.corePush},
		{"serve.engine", l.engine},
		{"serve.handler", l.handler},
	}
	var prev float64
	for i, c := range chain {
		ns, allocs, err := l.measure(c.name, c.fn)
		if err != nil {
			return fmt.Errorf("rung %s: %w", c.name, err)
		}
		r := rung{Name: c.name, NsPerSample: ns, AllocsPerSample: allocs}
		if i > 0 {
			r.DeltaNs = ns - prev
		}
		prev = ns
		res.Ladder = append(res.Ladder, r)
	}
	httpNs, httpAllocs, tracedNs, err := l.measureHTTP()
	if err != nil {
		return fmt.Errorf("rung http: %w", err)
	}
	res.Ladder = append(res.Ladder, rung{Name: "http", NsPerSample: httpNs, AllocsPerSample: httpAllocs, DeltaNs: httpNs - prev})
	for _, c := range []struct {
		name string
		fn   rungFn
	}{{"core.push_labeled", l.corePushLabeled}, {"quality.observe", l.qualityObserve}} {
		ns, allocs, err := l.measure(c.name, c.fn)
		if err != nil {
			return fmt.Errorf("rung %s: %w", c.name, err)
		}
		res.Ladder = append(res.Ladder, rung{Name: c.name, NsPerSample: ns, AllocsPerSample: allocs})
	}

	byName := map[string]rung{}
	for _, r := range res.Ladder {
		byName[r.Name] = r
	}
	res.set("core.push_ns", byName["core.push"].NsPerSample)
	res.set("core.push_allocs", byName["core.push"].AllocsPerSample)
	res.set("core.push_labeled_ns", byName["core.push_labeled"].NsPerSample)
	res.set("core.push_labeled_allocs", byName["core.push_labeled"].AllocsPerSample)
	res.set("quality.observe_ns", byName["quality.observe"].NsPerSample)
	res.set("serve.engine_ns", byName["serve.engine"].NsPerSample)
	res.set("serve.engine_allocs", byName["serve.engine"].AllocsPerSample)
	res.set("serve.handler_ns_per_sample", byName["serve.handler"].NsPerSample)
	res.set("serve.handler_allocs_per_sample", byName["serve.handler"].AllocsPerSample)
	res.set("serve.handler_ns_per_request", byName["serve.handler"].NsPerSample*float64(w.batch))
	res.set("http.ns_per_sample", httpNs)
	res.set("bench.trace_overhead_pct", (tracedNs-httpNs)/httpNs*100)
	return nil
}

// measure times a rung untraced and, when the run is traced, replays
// it once more untimed to record its spans.
func (l *ladder) measure(name string, fn rungFn) (ns, allocs float64, err error) {
	if _, err := l.once(fn, nil); err != nil {
		return 0, 0, err
	}
	var nsv, allocv []float64
	for i := 0; i < ladderPasses; i++ {
		st, err := l.once(fn, nil)
		if err != nil {
			return 0, 0, err
		}
		nsv = append(nsv, st.nsPerSample(l.nSamples))
		allocv = append(allocv, st.allocsPerSample(l.nSamples))
	}
	if l.cfg.tracer != nil {
		ctx, span := l.rungSpan(name)
		defer span.End()
		_, err = l.once(fn, ctx)
	}
	return median(nsv), median(allocv), err
}

// measureHTTP times the http rung without and with a bench span around
// every request, alternating the two kinds of pass so that a drift of
// the machine's speed falls on both; the difference is the price of
// the bench's own tracing. It returns the untraced medians and the
// traced median ns per sample.
func (l *ladder) measureHTTP() (ns, allocs, tracedNs float64, err error) {
	ctx, span := l.rungSpan("http")
	defer span.End()
	if _, err := l.once(l.http, nil); err != nil {
		return 0, 0, 0, err
	}
	var nsv, allocv, tracedv []float64
	for i := 0; i < 2*ladderPasses; i++ {
		traced := i%4 == 1 || i%4 == 2 // untraced, traced, traced, untraced, ...
		var pctx context.Context
		if traced {
			pctx = ctx
		}
		st, err := l.once(l.http, pctx)
		if err != nil {
			return 0, 0, 0, err
		}
		if traced {
			tracedv = append(tracedv, st.nsPerSample(l.nSamples))
			continue
		}
		nsv = append(nsv, st.nsPerSample(l.nSamples))
		allocv = append(allocv, st.allocsPerSample(l.nSamples))
	}
	return median(nsv), median(allocv), median(tracedv), nil
}

type passStats struct {
	wall    time.Duration
	mallocs uint64
}

func (p passStats) nsPerSample(n int) float64     { return float64(p.wall.Nanoseconds()) / float64(n) }
func (p passStats) allocsPerSample(n int) float64 { return float64(p.mallocs) / float64(n) }

// once prepares, runs and finishes one pass, timing only run.
func (l *ladder) once(fn rungFn, ctx context.Context) (passStats, error) {
	l.pass++
	run, done, err := fn(l.pass)
	if err != nil {
		return passStats{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err = run(ctx)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if derr := done(); err == nil {
		err = derr
	}
	return passStats{wall: wall, mallocs: m1.Mallocs - m0.Mallocs}, err
}

// rungSpan opens the parent span of a traced rung, so the rung's
// request spans share one lane of the trace.
func (l *ladder) rungSpan(name string) (context.Context, *obs.Span) {
	return l.cfg.tracer.StartSpan(context.Background(), "rung "+name,
		obs.String("workload", l.w.name), obs.Int("requests", len(l.reqs)))
}

// each runs fn for every ladder request, with a span named name per
// request when ctx is non-nil.
func (l *ladder) each(ctx context.Context, name string, fn func(k int) error) error {
	for k := range l.reqs {
		var span *obs.Span
		if ctx != nil {
			_, span = obs.FromContext(ctx).StartSpan(ctx, name, obs.Int("request_id", k))
		}
		err := fn(k)
		span.End()
		if err != nil {
			return err
		}
	}
	return nil
}

func noop() error { return nil }

func (l *ladder) corePush(int) (func(context.Context) error, func() error, error) {
	ss := make([]*core.StreamSession, len(l.sessions))
	for i := range ss {
		var err error
		if ss[i], err = core.NewStreamSession(l.cfg.cal.model, 1); err != nil {
			return nil, nil, err
		}
	}
	return func(ctx context.Context) error {
		return l.each(ctx, "core.push", func(k int) error {
			s := ss[l.reqs[k].sess]
			for _, cs := range l.samples[k] {
				if _, err := s.Push(cs); err != nil {
					return err
				}
			}
			return nil
		})
	}, noop, nil
}

func (l *ladder) corePushLabeled(int) (func(context.Context) error, func() error, error) {
	ss := make([]*core.StreamSession, len(l.sessions))
	for i := range ss {
		var err error
		if ss[i], err = core.NewStreamSessionRefit(l.cfg.cal.model, 1, ladderRefit); err != nil {
			return nil, nil, err
		}
	}
	return func(ctx context.Context) error {
		return l.each(ctx, "core.push_labeled", func(k int) error {
			s := ss[l.reqs[k].sess]
			for i, cs := range l.samples[k] {
				est, err := s.PushLabeled(cs, l.powers[k][i])
				if err != nil {
					return err
				}
				l.preds[k][i] = est.InstantW
			}
			return nil
		})
	}, noop, nil
}

// qualityObserve feeds the labelled rung's estimates to a per-model
// monitor and per-session trackers, as the estimate handler does.
func (l *ladder) qualityObserve(int) (func(context.Context) error, func() error, error) {
	mon := quality.NewMonitor(quality.Config{
		Thresholds: quality.Thresholds{WarnMAPEPct: 10, AlertMAPEPct: 20},
	})
	trackers := make([]*quality.Tracker, len(l.sessions))
	for i := range trackers {
		trackers[i] = quality.NewTracker(256)
	}
	return func(ctx context.Context) error {
		return l.each(ctx, "quality.observe", func(k int) error {
			r := l.reqs[k]
			for i, cs := range l.samples[k] {
				pred, obsW := l.preds[k][i], l.powers[k][i]
				mon.Observe(quality.Observation{
					TimeNs: cs.TimeNs, Session: l.sessions[r.sess].name, FreqMHz: cs.FreqMHz,
					VoltageV: cs.VoltageV, Rates: cs.Rates, PredictedW: pred, ObservedW: obsW,
				})
				trackers[r.sess].Observe(pred, obsW)
			}
			return nil
		})
	}, noop, nil
}

// newServer builds an in-process serve.Server configured the way
// pmcpowerd configures it by default: request spans on, info-level
// request log (to io.Discard here), quality tracking and the flight
// recorder on. Dumps are disabled so no file is written.
func (l *ladder) newServer() (*serve.Server, error) {
	reg := serve.NewRegistry()
	if _, err := reg.Add("default", l.cfg.cal.model); err != nil {
		return nil, err
	}
	return serve.New(serve.Config{
		Registry:          reg,
		DefaultAlpha:      1,
		IdleTTL:           5 * time.Minute,
		MaxSessions:       1024,
		Shards:            8,
		RetryAfter:        time.Second,
		MaxBodyBytes:      8 << 20,
		Obs:               obs.NewRegistry(),
		Logger:            obs.NewLogger(io.Discard, slog.LevelInfo),
		Tracer:            obs.NewTracer(),
		QualityWindow:     256,
		QualityExemplars:  32,
		QualityThresholds: quality.Thresholds{WarnMAPEPct: 10, AlertMAPEPct: 20},
	}), nil
}

func (l *ladder) sessionName(p, s int) string {
	return fmt.Sprintf("ladder%d-%s", p, l.sessions[s].name)
}

func (l *ladder) engine(p int) (func(context.Context) error, func() error, error) {
	srv, err := l.newServer()
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(l.sessions))
	for i := range names {
		names[i] = l.sessionName(p, i)
	}
	return func(ctx context.Context) error {
			return l.each(ctx, "serve.engine", func(k int) error {
				name := names[l.reqs[k].sess]
				for _, cs := range l.samples[k] {
					if _, err := srv.EstimateSample("", name, cs); err != nil {
						return err
					}
				}
				return nil
			})
		}, func() error {
			srv.Close()
			return nil
		}, nil
}

// recorder is a minimal in-memory ResponseWriter with Flush, so the
// handler's coalesced flushes run as they do on a socket.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Flush() {}

func (l *ladder) handler(p int) (func(context.Context) error, func() error, error) {
	srv, err := l.newServer()
	if err != nil {
		return nil, nil, err
	}
	h := srv.Handler()
	reqs := make([]*http.Request, len(l.reqs))
	recs := make([]*recorder, len(l.reqs))
	for k, r := range l.reqs {
		url := "/v1/estimate?session=" + l.sessionName(p, r.sess) + l.w.query()
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(l.bodies[k]))
		if err != nil {
			return nil, nil, err
		}
		reqs[k] = req
		recs[k] = &recorder{header: http.Header{}}
		recs[k].body.Grow(256 * r.n)
	}
	return func(ctx context.Context) error {
			return l.each(ctx, "serve.handler", func(k int) error {
				h.ServeHTTP(recs[k], reqs[k])
				return nil
			})
		}, func() error {
			srv.Close()
			var want []byte
			for k, r := range l.reqs {
				if recs[k].status != http.StatusOK {
					return fmt.Errorf("request %d: status %d: %.200s", k, recs[k].status, recs[k].body.Bytes())
				}
				if err := checkRows(recs[k].body.Bytes(), r.first, r.n, &want); err != nil {
					return fmt.Errorf("request %d: %w", k, err)
				}
			}
			return nil
		}, nil
}

// http replays the requests over one keep-alive connection to the
// real daemon, closed loop.
func (l *ladder) http(int) (func(context.Context) error, func() error, error) {
	conns := newConns(1, l.base, l.w.query(), l.daemonSessions, l.w.batch, nil)
	c := conns[0]
	return func(ctx context.Context) error {
			c.spans = ctx
			runClosed(conns, len(l.reqs))
			return nil
		}, func() error {
			c.close()
			if c.failed > 0 {
				return fmt.Errorf("%d of %d requests failed: %v", c.failed, c.attempted, c.errs)
			}
			return nil
		}, nil
}
