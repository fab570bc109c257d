package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/pmu"
)

// This file provides the run-time side of the paper's motivation:
// "there is a growing need for accurate real-time power information
// for efficient power management". A trained Equation-1 model is
// turned into a streaming session that consumes counter-rate samples
// (as an apapi-style sampler delivers them) and emits instantaneous
// and smoothed power estimates plus the integrated energy, in the
// spirit of Bellosa's Joule Watcher [8].

// Sentinel rejection kinds for Model.Estimate and StreamSession.Push.
// Deployment surfaces (internal/serve) classify rejected samples by
// these with errors.Is, so the mapping from validation failure to
// client-visible reason is typed rather than string-matched.
var (
	// ErrOutOfOrder marks a sample older than the last accepted one.
	ErrOutOfOrder = errors.New("sample out of order")
	// ErrBadOperatingPoint marks a non-positive frequency or a
	// non-finite/non-positive voltage.
	ErrBadOperatingPoint = errors.New("invalid operating point")
	// ErrMissingEvent marks a sample lacking a model event rate.
	ErrMissingEvent = errors.New("missing model event")
	// ErrBadRate marks a NaN, infinite, or negative counter rate.
	ErrBadRate = errors.New("invalid counter rate")
	// ErrNonFinite marks a sample that passed validation but whose
	// estimate overflows: the instant watts, the smoothed watts, or the
	// energy total would be NaN or infinite (e.g. a finite voltage of
	// 1e200, whose square overflows).
	ErrNonFinite = errors.New("non-finite estimate")
	// ErrBadPower marks a measured-power label that is NaN, infinite
	// or not positive.
	ErrBadPower = errors.New("invalid power reference")
)

// CounterSample is one streaming observation: counter rates over the
// preceding sampling interval together with the operating point.
type CounterSample struct {
	// TimeNs is the sample timestamp (monotonic, nanoseconds).
	TimeNs uint64
	// Rates are event rates in events/second for at least the model's
	// events.
	Rates map[pmu.EventID]float64
	// VoltageV and FreqMHz describe the operating point during the
	// interval.
	VoltageV float64
	FreqMHz  int
}

// StreamSession turns a trained model into one logical client's
// streaming power estimator: every accepted sample yields the
// instantaneous Equation-1 watts, an exponentially smoothed reading,
// and the energy integrated trapezoidally between consecutive samples
// — the software equivalent of an energy counter, after Bellosa's
// event-driven energy accounting. A mutex serializes pushes, so a
// deployment surface (the pmcpowerd daemon, or any embedder) can feed
// one client's samples from multiple goroutines without interleaving
// the EWMA and trapezoid state.
//
// A session opened with NewStreamSessionRefit additionally carries a
// refit window: labelled samples (PushLabeled) slide the model's
// coefficients toward the live counters-to-power relationship, and
// every estimate is stamped with the model version that produced it.
type StreamSession struct {
	mu sync.Mutex
	// model serves the estimates: the frozen fit, or the refit
	// window's adapted copy whose coefficients refresh in place.
	model *Model
	// alpha is the EWMA smoothing factor in (0,1]; 1 disables
	// smoothing.
	alpha    float64
	smoothed float64
	// lastNs and lastW are the last accepted sample's timestamp and
	// instantaneous watts: the ordering bound and the left edge of the
	// next trapezoid.
	lastNs  uint64
	lastW   float64
	totalJ  float64
	samples uint64
	// refit is nil for frozen sessions.
	refit *refitter
}

// NewStreamSession wraps a trained model. alpha is the EWMA factor:
// smoothed ← alpha·instant + (1−alpha)·smoothed. The energy integral
// always uses instantaneous power, so alpha does not affect joules.
func NewStreamSession(m *Model, alpha float64) (*StreamSession, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: EWMA alpha %v outside (0,1]", alpha)
	}
	return &StreamSession{model: m, alpha: alpha}, nil
}

// NewStreamSessionRefit is NewStreamSession with streaming refit over
// a sliding window of refitWindow labelled samples (window == 0 means
// frozen, identical to NewStreamSession). The window must exceed the
// design's len(m.Events)+3 columns. The session serves an adapted copy
// of m, so coefficient refreshes take effect on the very next sample;
// until the first refresh the copy is coefficient-identical to m, and
// m itself is never mutated.
func NewStreamSessionRefit(m *Model, alpha float64, refitWindow int) (*StreamSession, error) {
	s, err := NewStreamSession(m, alpha)
	if err != nil || refitWindow == 0 {
		return s, err
	}
	if s.refit, err = newRefitter(m, refitWindow); err != nil {
		return nil, err
	}
	s.model = s.refit.model
	return s, nil
}

// StreamEstimate is one output of a StreamSession: the instantaneous
// and smoothed watts, the cumulative joules, the number of samples
// accepted so far, and the version of the model that computed the
// estimate (0 = the frozen offline fit; it increments with every
// streaming coefficient refresh).
type StreamEstimate struct {
	TimeNs       uint64
	InstantW     float64
	SmoothedW    float64
	TotalJoules  float64
	Samples      uint64
	ModelVersion uint64
}

// Push consumes one sample under the session lock. Samples must
// arrive in non-decreasing time order, carry every model event, be
// finite, and yield a finite estimate: an out-of-order sample, an
// invalid operating point, a missing or NaN/Inf/negative counter rate,
// or an estimate that overflows is rejected before any state mutates,
// so an error here never poisons the EWMA, the energy integral, or any
// later estimate.
func (s *StreamSession) Push(cs CounterSample) (StreamEstimate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.push(cs)
}

func (s *StreamSession) push(cs CounterSample) (StreamEstimate, error) {
	if s.samples > 0 && cs.TimeNs < s.lastNs {
		return StreamEstimate{}, fmt.Errorf("core: %w: sample at %d ns (last %d ns)", ErrOutOfOrder, cs.TimeNs, s.lastNs)
	}
	inst, err := s.model.Estimate(cs)
	if err != nil {
		return StreamEstimate{}, err
	}
	smoothed, totalJ := inst, s.totalJ
	if s.samples > 0 {
		smoothed = s.alpha*inst + (1-s.alpha)*s.smoothed
		dt := float64(cs.TimeNs-s.lastNs) / 1e9
		totalJ += dt * (inst + s.lastW) / 2
	}
	// The sample is sound; what can still overflow is the session's
	// running state.
	if !finite(smoothed) || !finite(totalJ) {
		return StreamEstimate{}, fmt.Errorf("core: %w: instant %v W, smoothed %v W, energy %v J", ErrNonFinite, inst, smoothed, totalJ)
	}
	s.smoothed, s.totalJ = smoothed, totalJ
	s.lastNs, s.lastW = cs.TimeNs, inst
	s.samples++
	version := uint64(0)
	if s.refit != nil {
		version = s.refit.version
	}
	return StreamEstimate{
		TimeNs:       cs.TimeNs,
		InstantW:     inst,
		SmoothedW:    s.smoothed,
		TotalJoules:  s.totalJ,
		Samples:      s.samples,
		ModelVersion: version,
	}, nil
}

// Estimate evaluates Equation 1 for one counter sample, and is the one
// rule that decides whether a sample can be estimated at all: it needs
// a positive frequency, a finite positive voltage, each of m's events,
// and a finite, non-negative rate for every event it carries, the
// model's or not; and the estimate itself must be finite. A refusal
// wraps ErrBadOperatingPoint, ErrMissingEvent, ErrBadRate or
// ErrNonFinite; an accepted sample's watts are Predict's, bit for bit.
// StreamSession.Push, the daemon's /v1/predict, cmd/estimate and
// AttributePerCore all apply it.
func (m *Model) Estimate(cs CounterSample) (float64, error) {
	if err := m.checkSample(cs); err != nil {
		return 0, err
	}
	p := m.Predict(&acquisition.Row{FreqMHz: cs.FreqMHz, VoltageV: cs.VoltageV, Rates: cs.Rates})
	if !finite(p) {
		return 0, fmt.Errorf("core: %w: %v W", ErrNonFinite, p)
	}
	return p, nil
}

// checkSample returns Estimate's first refusal of cs: the operating
// point, then m's events in design order, then the lowest-numbered
// other event with a bad rate. m's events are distinct (Train and
// ReadJSON refuse duplicates), so a sample that carries no more rates
// than m has events carries only m's, and skips that last scan.
func (m *Model) checkSample(cs CounterSample) error {
	if cs.FreqMHz <= 0 || !(cs.VoltageV > 0) || math.IsInf(cs.VoltageV, 0) {
		return fmt.Errorf("core: %w: freq %d MHz, voltage %v V", ErrBadOperatingPoint, cs.FreqMHz, cs.VoltageV)
	}
	for _, id := range m.Events {
		r, ok := cs.Rates[id]
		if !ok {
			return fmt.Errorf("core: %w: %s", ErrMissingEvent, pmu.Lookup(id).Name)
		}
		if badRate(r) {
			return fmt.Errorf("core: %w: %v for event %s", ErrBadRate, r, pmu.Lookup(id).Name)
		}
	}
	if len(cs.Rates) == len(m.Events) {
		return nil
	}
	bad := pmu.EventID(-1)
	for id, r := range cs.Rates {
		if badRate(r) && (bad < 0 || id < bad) {
			bad = id
		}
	}
	if bad >= 0 {
		return fmt.Errorf("core: %w: %v for event %s", ErrBadRate, cs.Rates[bad], pmu.Lookup(bad).Name)
	}
	return nil
}

// badRate reports whether a counter rate is NaN, infinite or negative.
func badRate(r float64) bool { return math.IsNaN(r) || math.IsInf(r, 0) || r < 0 }

// CheckPower applies the label rule to a measured-power reference: it
// must be finite and positive, or the error wraps ErrBadPower.
// StreamSession.PushLabeled and cmd/estimate both apply it.
func CheckPower(powerW float64) error {
	if !(powerW > 0) || math.IsInf(powerW, 0) {
		return fmt.Errorf("core: %w: %v W", ErrBadPower, powerW)
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// PushLabeled is Push for a sample that also carries a measured power
// reference (e.g. a RAPL reading). On a refitting session the sample
// is estimated first — prequentially, with the coefficients fitted to
// samples strictly before it — and then folded into the refit window,
// so the returned estimate never scores a model on its own training
// row. The power reference is validated up front: a bad label
// (ErrBadPower) rejects the whole sample, leaving every piece of
// session state untouched. On a frozen session the label is ignored
// and PushLabeled behaves exactly like Push.
func (s *StreamSession) PushLabeled(cs CounterSample, powerW float64) (StreamEstimate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refit == nil {
		return s.push(cs)
	}
	if err := CheckPower(powerW); err != nil {
		return StreamEstimate{}, err
	}
	est, err := s.push(cs)
	if err == nil {
		s.refit.observe(cs, powerW)
	}
	return est, err
}

// ModelVersion returns the current coefficient generation (0 for a
// frozen session or before the first streaming refresh).
func (s *StreamSession) ModelVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refit == nil {
		return 0
	}
	return s.refit.version
}

// Refitting reports whether the session adapts its model from
// labelled samples.
func (s *StreamSession) Refitting() bool { return s.refit != nil }

// RefitRebuilds returns how many downdate breakdowns forced the refit
// window to refactorize from its retained rows (0 for frozen
// sessions).
func (s *StreamSession) RefitRebuilds() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refit == nil {
		return 0
	}
	return s.refit.rebuilds
}

// Totals returns the cumulative joules and accepted-sample count
// without pushing a sample.
func (s *StreamSession) Totals() (joules float64, samples uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalJ, s.samples
}
