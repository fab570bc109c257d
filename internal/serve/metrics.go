package serve

import (
	"sync/atomic"
	"time"

	"pmcpower/internal/obs"
)

// Rejection reasons, used both as metric labels and in NDJSON error
// records. They partition every way a sample or request can be
// refused, so operators can tell a misbehaving client (out_of_order,
// missing_event) from a capacity problem (session_limit, busy).
const (
	ReasonParse       = "parse"
	ReasonUnknownEv   = "unknown_event"
	ReasonMissingEv   = "missing_event"
	ReasonBadRate     = "bad_rate"
	ReasonBadOperPt   = "bad_operating_point"
	ReasonOutOfOrder  = "out_of_order"
	ReasonOversized   = "oversized_line"
	ReasonSessionCap  = "session_limit"
	ReasonSessionBusy = "session_busy"
	ReasonBadPower    = "bad_power"
	// ReasonNonFinite refuses a sample or predict row that passed
	// validation but whose estimate overflows to NaN or ±Inf.
	ReasonNonFinite = "non_finite_estimate"
	// Admission-control rejections: the in-flight cap (429) and the
	// p99 latency shed (503).
	ReasonShedInflight = "shed_inflight"
	ReasonShedP99      = "shed_p99"
)

// driftBuckets are watt-scale histogram bounds for the absolute error
// between the served estimate and the measured power reference — the
// drift signal streaming refit exists to shrink. The paper's models
// sit in the 1–5% MAPE band on ~50–200 W nodes, so sub-watt buckets
// resolve a healthy model and the tail flags one that needs refit.
var driftBuckets = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100}

// Metrics is the pmcpowerd instrument set, backed by the shared
// internal/obs registry (the seed's hand-rolled render loop is gone):
// request counters and latency histograms by path, rejected samples
// by reason, accepted-estimate counters with a push-latency
// histogram, and session lifecycle counters. Gauges whose value lives
// elsewhere (active sessions, registered models) are attached by the
// Server as GaugeFuncs on the same registry. Rendering is the
// registry's: families and label sets in canonical sorted order,
// byte-stable across runs.
type Metrics struct {
	reg *obs.Registry

	estimates       *obs.Counter
	evictions       *obs.Counter
	sessionsCreated *obs.Counter
	estimateLatency *obs.StripedHistogram
	refitSamples    *obs.Counter
	refits          *obs.Counter
	refitRebuilds   *obs.Counter
	refitDrift      *obs.Histogram
	totalRequests   atomic.Uint64
	// The request counters and latency histograms of the estimation
	// endpoints, indexed like gatedPaths and resolved once: a registry
	// lookup copies and sorts the labels, formats a signature and takes
	// the registry lock, too much to pay twice per estimate request.
	gatedRequests [len(gatedPaths)]*obs.Counter
	gatedLatency  [len(gatedPaths)]*obs.Histogram
}

// NewMetrics returns the instrument set registered on reg (the
// process default when nil). Registration is idempotent, so a shared
// registry (e.g. obs.Default()) can carry both these and library
// metrics like the parallel engine's task counters.
// The per-sample estimate-latency histogram is striped by session
// shard (stripes is the shard count), so concurrent streams record
// push latency without sharing a lock; the exposition merges stripes
// and stays byte-identical to a single histogram.
func NewMetrics(reg *obs.Registry, stripes int) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	m := &Metrics{
		reg: reg,
		estimates: reg.Counter("pmcpowerd_estimates_total",
			"Accepted streaming samples across all sessions."),
		evictions: reg.Counter("pmcpowerd_sessions_evicted_total",
			"Estimator sessions evicted for idleness."),
		sessionsCreated: reg.Counter("pmcpowerd_sessions_created_total",
			"Named estimator sessions created."),
		estimateLatency: reg.StripedHistogram("pmcpowerd_estimate_latency_seconds",
			"Per-sample estimator push latency.", nil, stripes),
		refitSamples: reg.Counter("pmcpowerd_refit_samples_total",
			"Labelled samples folded into streaming refit windows."),
		refits: reg.Counter("pmcpowerd_refits_total",
			"Streaming coefficient refreshes across all refitting sessions."),
		refitRebuilds: reg.Counter("pmcpowerd_refit_rebuilds_total",
			"Refit-window refactorizations forced by downdate breakdown."),
		refitDrift: reg.Histogram("pmcpowerd_refit_drift_watts",
			"Absolute error of the estimate against the measured power reference, in watts.",
			driftBuckets),
	}
	for i, path := range gatedPaths {
		m.gatedRequests[i] = reg.Counter("pmcpowerd_requests_total", "HTTP requests by path.",
			obs.Label{Key: "path", Value: path})
		m.gatedLatency[i] = reg.Histogram("pmcpowerd_request_seconds", "HTTP request latency by path.",
			nil, obs.Label{Key: "path", Value: path})
	}
	return m
}

// requestCounter returns path's request counter: resolved by
// NewMetrics for an estimation endpoint, looked up in the registry
// (and registered on first use) for any other path.
func (m *Metrics) requestCounter(path string) *obs.Counter {
	if i := gatedIndex(path); i >= 0 {
		return m.gatedRequests[i]
	}
	return m.reg.Counter("pmcpowerd_requests_total", "HTTP requests by path.",
		obs.Label{Key: "path", Value: path})
}

// Registry exposes the backing registry (for GaugeFunc attachment and
// the /metrics handler).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// SetBuildInfo publishes the constant pmcpowerd_build_info gauge: the
// value is always 1, the payload is the label set (service version and
// Go runtime), following the Prometheus build-info convention.
func (m *Metrics) SetBuildInfo(version, goVersion string) {
	m.reg.Gauge("pmcpowerd_build_info",
		"Build metadata; constant 1 with version labels.",
		obs.Label{Key: "version", Value: version},
		obs.Label{Key: "goversion", Value: goVersion}).Set(1)
}

// QualityState publishes the drift state for one served model version
// as a numeric gauge (0 ok, 1 warn, 2 alert) so dashboards can alert
// on `pmcpowerd_quality_state >= 2`.
func (m *Metrics) QualityState(model string, state float64) {
	m.reg.Gauge("pmcpowerd_quality_state",
		"Model drift state by served model version (0 ok, 1 warn, 2 alert).",
		obs.Label{Key: "model", Value: model}).Set(state)
}

// QualityTransition counts one drift state change for a model.
func (m *Metrics) QualityTransition(model, to string) {
	m.reg.Counter("pmcpowerd_quality_transitions_total",
		"Drift state transitions by served model version and destination state.",
		obs.Label{Key: "model", Value: model},
		obs.Label{Key: "to", Value: to}).Inc()
}

// SessionsCreated returns the named-session creation count.
func (m *Metrics) SessionsCreated() uint64 { return m.sessionsCreated.Value() }

// Evictions returns the idle-eviction count.
func (m *Metrics) Evictions() uint64 { return m.evictions.Value() }

// Request counts one HTTP request to path.
func (m *Metrics) Request(path string) {
	m.totalRequests.Add(1)
	m.requestCounter(path).Inc()
}

// Reject counts one rejected sample or refused request under reason.
func (m *Metrics) Reject(reason string) {
	m.reg.Counter("pmcpowerd_samples_rejected_total", "Rejected samples and refused requests by reason.",
		obs.Label{Key: "reason", Value: reason}).Inc()
}

// Estimate records one accepted sample and its push latency on the
// given histogram stripe (the observing session's shard index, so
// streams on different shards never contend on one histogram lock).
func (m *Metrics) Estimate(stripe int, d time.Duration) {
	m.estimates.Inc()
	m.estimateLatency.Observe(stripe, d.Seconds())
}

// Shed counts one request shed by admission control on path for
// reason (shed_inflight or shed_p99).
func (m *Metrics) Shed(path, reason string) {
	m.reg.Counter("pmcpowerd_shed_total",
		"Requests shed by admission control, by path and reason.",
		obs.Label{Key: "path", Value: path},
		obs.Label{Key: "reason", Value: reason}).Inc()
}

// SetShedState publishes the admission gate's latency EWMA and
// current shed decision as gauges.
func (m *Metrics) SetShedState(p99EwmaS float64, shedding bool) {
	m.reg.Gauge("pmcpowerd_shed_p99_ewma_seconds",
		"EWMA of the p99 latency over recent estimate/predict requests.").Set(p99EwmaS)
	v := 0.0
	if shedding {
		v = 1
	}
	m.reg.Gauge("pmcpowerd_shedding",
		"1 while p99 load shedding is active, else 0.").Set(v)
}

// RefitSample records one labelled sample folded into a refit window,
// with the drift (|estimate − measured|, watts) it observed.
func (m *Metrics) RefitSample(driftW float64) {
	m.refitSamples.Inc()
	m.refitDrift.Observe(driftW)
}

// Refits counts n streaming coefficient refreshes.
func (m *Metrics) Refits(n uint64) { m.refits.Add(n) }

// RefitRebuilds counts n downdate-breakdown refactorizations.
func (m *Metrics) RefitRebuilds(n uint64) { m.refitRebuilds.Add(n) }

// Eviction counts one idle-session eviction.
func (m *Metrics) Eviction() { m.evictions.Inc() }

// SessionCreated counts one named-session creation.
func (m *Metrics) SessionCreated() { m.sessionsCreated.Inc() }

// TotalRequests returns the number of requests counted across all
// paths — pmcpowerd's shutdown log reports it as "requests served".
func (m *Metrics) TotalRequests() uint64 { return m.totalRequests.Load() }

// Render returns the full exposition (all families on the backing
// registry) in canonical byte-stable order.
func (m *Metrics) Render() string { return m.reg.Render() }
