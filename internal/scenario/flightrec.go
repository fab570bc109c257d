package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pmcpower/internal/quality"
	"pmcpower/internal/serve"
)

// Client-pinned trace contexts: the scenario supplies the traceparent
// so retained traces can be chased by a known id, exactly the way an
// operator correlates a caller's trace through the daemon.
const (
	slowTraceID    = "feedfacefeedfacefeedfacefeedface"
	slowTP         = "00-" + slowTraceID + "-feedfacefeedface-01"
	flaggedTraceID = "deadbeefdeadbeefdeadbeefdeadbeef"
	flaggedTP      = "00-" + flaggedTraceID + "-deadbeefdeadbeef-01"
)

// SlowRequestCapture drives the tail-sampled flight recorder end to
// end: a storm of fast requests establishes the rolling latency
// baseline and must all be dropped from retention, one held stream
// straddling an injected-clock jump becomes the latency outlier the
// recorder must retain in full, and a labelled drift stream that trips
// the quality alert must come back flagged with its trace retained and
// the recorder dumped to disk on the transition. Every retained trace
// is resolved by its client-pinned trace id via /debug/requests under
// the same strict decode pmcpowertop -validate uses.
func SlowRequestCapture() Scenario {
	var fx *serveFixture
	var dumpDir string
	const (
		fastStreams = 16 // past the recorder warmup (8) so slow detection arms
		nDrift      = 300
		drift       = 0.20
	)
	var timeNs uint64
	dumpPath := func() string { return filepath.Join(dumpDir, "flightrec-alert.json") }

	return Scenario{
		Name:        "slow-request-capture",
		Description: "latency outlier on an injected clock plus a quality alert; the flight recorder must retain exactly the interesting traces and drop the fast path",
		Steps: []Step{
			{Name: "boot", Run: func(ctx *Context) error {
				var err error
				dumpDir, err = os.MkdirTemp("", "scenario-flightrec-")
				if err != nil {
					return err
				}
				fx, err = startServe(ctx.Env, serve.Config{
					FlightRecWarmup:   8,
					FlightRecMinSlow:  100 * time.Millisecond,
					FlightRecDumpPath: dumpPath(),
					QualityWindow:     64,
					QualityThresholds: quality.Thresholds{
						WarnMAPEPct: 5, AlertMAPEPct: 12,
						WarnBiasW: -1, AlertBiasW: -1,
						MinSamples: 16,
					},
				})
				return err
			}},
			{Name: "fast-baseline", Run: func(ctx *Context) error {
				// The injected clock never moves during these streams, so
				// every request completes in zero recorder time — the
				// fastest possible baseline, none of it worth retaining.
				rows := ctx.Env.Rows
				for i := 0; i < fastStreams; i++ {
					timeNs += 1e6
					res, err := streamLines(fx.ts, "?model=m", []string{rowLine(rows[i%len(rows)], timeNs)})
					if err != nil {
						return err
					}
					if res.status != 200 {
						return fmt.Errorf("fast stream %d: HTTP %d", i, res.status)
					}
				}
				total, kept := fx.srv.FlightRecorder().Stats()
				ctx.M.Add("fast_requests", float64(total))
				if kept != 0 {
					return fmt.Errorf("recorder retained %d of %d fast requests, want 0", kept, total)
				}
				return nil
			}},
			{Name: "latency-outlier", Run: func(ctx *Context) error {
				// Hold a stream open across a 2 s clock jump: to the
				// recorder this request ran three orders of magnitude
				// longer than the baseline.
				timeNs += 1e6
				hs, err := openHeldStreamTraced(fx.ts, "?model=m&session=outlier", slowTP,
					rowLine(ctx.Env.Rows[0], timeNs))
				if err != nil {
					return err
				}
				fx.clock.Advance(2 * time.Second)
				ctx.M.Add("slow_threshold_s", fx.srv.FlightRecorder().SlowThreshold().Seconds())
				return hs.release()
			}},
			{Name: "quality-alert-flag", Run: func(ctx *Context) error {
				// A labelled stream drifting +20% against the frozen model
				// walks ok→warn→alert mid-request; the transition must flag
				// this request's trace in the recorder and dump to disk.
				rows := ctx.Env.Rows
				var lines []string
				for i := 0; i < nDrift; i++ {
					r := rows[i%len(rows)]
					timeNs += 1e6
					pred := ctx.Env.Model.Predict(r)
					lines = append(lines, rowLineLabeled(r, timeNs, pred*(1+drift*float64(i+1)/nDrift)))
				}
				res, err := streamLinesTraced(fx.ts, "?model=m&session=drifter", flaggedTP, lines)
				if err != nil {
					return err
				}
				if res.status != 200 || len(res.errors) != 0 {
					return fmt.Errorf("drift stream: status %d, %d error lines", res.status, len(res.errors))
				}
				return nil
			}},
		},
		Checkpoints: []Checkpoint{
			{Name: "only-interesting-traces-retained", Check: func(ctx *Context) error {
				total, kept := fx.srv.FlightRecorder().Stats()
				ctx.M.Add("requests_total", float64(total))
				ctx.M.Add("requests_retained", float64(kept))
				if kept != 2 {
					return fmt.Errorf("recorder retained %d traces, want exactly 2 (outlier + flagged)", kept)
				}
				return nil
			}},
			{Name: "outlier-retained-in-full", Check: func(ctx *Context) error {
				at := fx.srv.FlightRecorder().Lookup(slowTraceID)
				if at != nil {
					return fmt.Errorf("outlier still in flight after release")
				}
				for _, rt := range fx.srv.FlightRecorder().Retained() {
					if rt.Summary.TraceID != slowTraceID {
						continue
					}
					if !rt.Summary.Slow {
						return fmt.Errorf("outlier retained but not marked slow: %+v", rt.Summary)
					}
					if rt.Summary.DurationNs < int64(2*time.Second) {
						return fmt.Errorf("outlier duration %v ns, want >= 2s of injected latency", rt.Summary.DurationNs)
					}
					if len(rt.Summary.Stages) == 0 || rt.Summary.Samples != 1 {
						return fmt.Errorf("outlier trace incomplete: %+v", rt.Summary)
					}
					return nil
				}
				return fmt.Errorf("latency outlier %s not retained", slowTraceID)
			}},
			{Name: "alert-flagged-trace-retained", Check: func(ctx *Context) error {
				for _, rt := range fx.srv.FlightRecorder().Retained() {
					if rt.Summary.TraceID != flaggedTraceID {
						continue
					}
					if !strings.Contains(rt.Summary.FlagReason, "quality") {
						return fmt.Errorf("flag reason %q does not name the quality transition", rt.Summary.FlagReason)
					}
					return nil
				}
				return fmt.Errorf("quality-flagged trace %s not retained", flaggedTraceID)
			}},
			{Name: "traces-resolvable-via-debug-requests", Check: func(ctx *Context) error {
				reqs, err := fx.requests()
				if err != nil {
					return err
				}
				found := map[string]bool{}
				for _, rt := range reqs.RetainedTraces {
					found[rt.Summary.TraceID] = true
				}
				for _, id := range []string{slowTraceID, flaggedTraceID} {
					if !found[id] {
						return fmt.Errorf("trace %s not resolvable via /debug/requests (have %v)", id, found)
					}
				}
				if len(reqs.LatencyExemplars) == 0 {
					return fmt.Errorf("latency histogram carries no trace-id exemplars")
				}
				return nil
			}},
			{Name: "alert-transition-dumped-recorder", Check: func(ctx *Context) error {
				raw, err := os.ReadFile(dumpPath())
				if err != nil {
					return fmt.Errorf("alert dump not written: %w", err)
				}
				var doc struct {
					TraceEvents []struct {
						Phase string         `json:"ph"`
						Args  map[string]any `json:"args"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					return fmt.Errorf("alert dump is not a Chrome trace document: %w", err)
				}
				// The dump fires inside the alerting request, so it holds
				// the traces retained before it — the latency outlier.
				for _, ev := range doc.TraceEvents {
					if ev.Phase == "X" && ev.Args["trace_id"] == slowTraceID {
						return nil
					}
				}
				return fmt.Errorf("alert dump lacks the retained outlier trace %s", slowTraceID)
			}},
			{Name: "zero-rejections", Check: func(ctx *Context) error {
				if n := totalRejected(fx); n != 0 {
					return fmt.Errorf("%d samples rejected", n)
				}
				return nil
			}},
			{Name: "zero-handler-panics", Check: func(ctx *Context) error {
				if p := fx.plog.panics(); len(p) > 0 {
					return fmt.Errorf("http server logged %d panics: %s", len(p), p[0])
				}
				return nil
			}},
		},
		Cleanup: func(ctx *Context) {
			if fx != nil {
				fx.close()
			}
			if dumpDir != "" {
				os.RemoveAll(dumpDir)
			}
		},
	}
}
