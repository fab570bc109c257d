package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pmcpower/internal/obs"
)

// admissionGate is the token-style admission controller in front of
// the estimation endpoints (/v1/estimate, /v1/predict). Two
// independent signals shed load before it reaches the estimator:
//
//   - In-flight cap: when MaxInFlight > 0, at most that many estimate
//     and predict requests are admitted concurrently; the rest get an
//     immediate 429 with Retry-After. The check is one atomic
//     add-and-compare, so the admitted path pays two uncontended
//     atomic ops total.
//
//   - Latency shedding: when ShedP99 > 0, the gate tracks an EWMA of
//     the p99 over recent estimate/predict request latencies (delta
//     snapshots of the internal/obs request-latency histograms, taken
//     every shedSampleEvery completions) and returns 503 with Retry-After
//     while the EWMA is above the threshold. Shed responses are
//     cheap and themselves land in the latency histograms, so under
//     sustained overload the EWMA decays and admission reopens —
//     the gate duty-cycles around the threshold instead of latching.
//
// With both knobs at zero the gate only maintains the in-flight
// gauge; request handling is byte-identical to the ungated path.
type admissionGate struct {
	maxInFlight int64
	shedP99S    float64 // threshold in seconds; 0 disables p99 shedding
	retryAfter  string  // preformatted Retry-After header value, seconds
	ewmaAlpha   float64
	sampleEvery uint64 // gated-request completions between p99 recomputations; shedSampleEvery
	metrics     *Metrics

	inflight  atomic.Int64
	shedding  atomic.Bool
	completed atomic.Uint64

	mu       sync.Mutex
	prev     [len(gatedPaths)]obs.HistogramSnapshot
	ewmaS    float64
	primed   bool
	p99Bits  atomic.Uint64 // float64 bits of the current EWMA, for status
	shedDrop atomic.Uint64 // total shed requests (both signals)
}

// gatedPaths are the endpoints the admission gate protects and whose
// request-latency histograms feed the p99 shed signal, the only paths
// with a latency histogram. They are in sorted order, the order of
// /debug/requests' latency exemplars.
var gatedPaths = [...]string{"/v1/estimate", "/v1/predict"}

// gatedIndex returns path's index in gatedPaths, -1 for any other
// path.
func gatedIndex(path string) int {
	for i, p := range gatedPaths {
		if p == path {
			return i
		}
	}
	return -1
}

func newAdmissionGate(cfg Config, m *Metrics) *admissionGate {
	return &admissionGate{
		maxInFlight: int64(cfg.MaxInFlight),
		shedP99S:    cfg.ShedP99.Seconds(),
		retryAfter:  strconv.Itoa(retryAfterSeconds(cfg.RetryAfter)),
		ewmaAlpha:   0.3,
		sampleEvery: shedSampleEvery,
		metrics:     m,
	}
}

// retryAfterSeconds rounds a Retry-After hint up to whole seconds
// (the header's granularity), with a floor of 1.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// enabled reports whether either shedding signal is configured.
func (g *admissionGate) enabled() bool {
	return g.maxInFlight > 0 || g.shedP99S > 0
}

// admit claims an admission token for one request on path. On success
// the caller must pair it with exactly one leave(). On rejection the
// token is already returned and the caller should write herr with the
// Retry-After header (setRetryAfter).
func (g *admissionGate) admit(path string) *httpError {
	n := g.inflight.Add(1)
	if g.maxInFlight > 0 && n > g.maxInFlight {
		g.inflight.Add(-1)
		g.shed(path, ReasonShedInflight)
		return &httpError{
			status: http.StatusTooManyRequests,
			reason: ReasonShedInflight,
			err:    fmt.Errorf("serve: over capacity: %d requests in flight (limit %d)", n-1, g.maxInFlight),
		}
	}
	if g.shedP99S > 0 && g.shedding.Load() {
		g.inflight.Add(-1)
		g.shed(path, ReasonShedP99)
		return &httpError{
			status: http.StatusServiceUnavailable,
			reason: ReasonShedP99,
			err: fmt.Errorf("serve: shedding load: p99 latency %.1f ms over threshold %.1f ms",
				g.p99EwmaS()*1e3, g.shedP99S*1e3),
		}
	}
	return nil
}

// leave returns the admission token claimed by a successful admit.
func (g *admissionGate) leave() { g.inflight.Add(-1) }

func (g *admissionGate) shed(path, reason string) {
	g.shedDrop.Add(1)
	g.metrics.Shed(path, reason)
	g.metrics.Reject(reason)
}

// setRetryAfter stamps the backoff hint on a shed response.
func (g *admissionGate) setRetryAfter(h http.Header) {
	h.Set("Retry-After", g.retryAfter)
}

// shedSampleEvery is the number of gated-request completions between
// p99 recomputations.
const shedSampleEvery = 32

// observe is called by the middleware once per completed gated
// request (admitted or shed). Every sampleEvery completions the gate
// diffs the request-latency histograms against the previous snapshot,
// folds the merged delta's p99 into the EWMA, and re-evaluates the
// shed state.
func (g *admissionGate) observe() {
	if g.shedP99S <= 0 {
		return
	}
	if g.completed.Add(1)%g.sampleEvery != 0 {
		return
	}
	g.recompute()
}

func (g *admissionGate) recompute() {
	g.mu.Lock()
	defer g.mu.Unlock()
	var delta obs.HistogramSnapshot
	for i, h := range g.metrics.gatedLatency {
		cur := h.Snapshot()
		if delta.Bounds == nil {
			delta.Bounds = cur.Bounds
			delta.Counts = make([]uint64, len(cur.Counts))
		}
		prev := g.prev[i]
		for j, c := range cur.Counts {
			d := c
			if prev.Counts != nil {
				d -= prev.Counts[j]
			}
			delta.Counts[j] += d
			delta.Count += d
		}
		g.prev[i] = cur
	}
	if delta.Count == 0 {
		return // no gated traffic since the last look; keep the EWMA
	}
	p99, ok := delta.Quantile(0.99)
	if !ok {
		return
	}
	if !g.primed {
		g.ewmaS = p99
		g.primed = true
	} else {
		g.ewmaS = g.ewmaAlpha*p99 + (1-g.ewmaAlpha)*g.ewmaS
	}
	g.p99Bits.Store(math.Float64bits(g.ewmaS))
	g.shedding.Store(g.ewmaS > g.shedP99S)
	g.metrics.SetShedState(g.ewmaS, g.shedding.Load())
}

// p99EwmaS returns the current latency EWMA in seconds (0 before the
// first recompute).
func (g *admissionGate) p99EwmaS() float64 { return math.Float64frombits(g.p99Bits.Load()) }

// inFlight returns the number of gated requests currently admitted.
func (g *admissionGate) inFlight() int { return int(g.inflight.Load()) }

// sheddingNow reports whether p99 shedding is currently active.
func (g *admissionGate) sheddingNow() bool { return g.shedP99S > 0 && g.shedding.Load() }

// shedTotal returns the total number of requests shed by either
// signal since start.
func (g *admissionGate) shedTotal() uint64 { return g.shedDrop.Load() }
