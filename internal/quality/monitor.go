package quality

import (
	"sync"
	"time"
)

// Config tunes a Monitor. The zero value is usable: every field has a
// production default.
type Config struct {
	// Window is the sliding-window size in labelled samples.
	// Default 256.
	Window int
	// Exemplars is the worst-residual buffer capacity. Default 32.
	Exemplars int
	// Thresholds configures the drift state machine's MAPE triggers
	// (zero fields defaulted; see Thresholds).
	Thresholds Thresholds
	// OnTransition, when non-nil, is invoked for every drift state
	// change with the observation that triggered it (its TraceID links
	// the transition to a concrete request) and the window snapshot
	// that caused it. It runs under the monitor lock — keep it cheap
	// (set a gauge, emit a log record, flag a trace) and do not call
	// back into the monitor.
	OnTransition func(from, to State, o Observation, snap WindowSnapshot)
	// Now supplies exemplar capture timestamps, injectable for tests.
	// Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.Exemplars <= 0 {
		c.Exemplars = 32
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Monitor aggregates model quality for one served model version: the
// windowed residual tracker, the drift state machine, and the
// worst-residual exemplar buffer, behind one lock. The serving layer
// feeds every labelled sample through Observe and reads Snapshot for
// /v1/status; Observe is allocation-free in the steady state (no
// exemplar displacement).
type Monitor struct {
	cfg Config

	mu        sync.Mutex
	tracker   *Tracker
	machine   *Machine
	exemplars *Exemplars
}

// NewMonitor builds a monitor from cfg.
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{
		cfg:       cfg,
		tracker:   NewTracker(cfg.Window),
		machine:   NewMachine(cfg.Thresholds),
		exemplars: NewExemplars(cfg.Exemplars),
	}
}

// Observe folds one labelled observation into the tracker, offers it
// to the exemplar buffer, and advances the drift state machine,
// firing OnTransition on a state change. It reports whether the pair
// was usable (see Tracker.Observe).
func (m *Monitor) Observe(o Observation) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.tracker.Observe(o.PredictedW, o.ObservedW) {
		return false
	}
	m.exemplars.Consider(o, m.cfg.Now())
	snap := m.tracker.Snapshot()
	if from, to, changed := m.machine.Update(snap); changed && m.cfg.OnTransition != nil {
		m.cfg.OnTransition(from, to, o, snap)
	}
	return true
}

// Snapshot is a consistent point-in-time view of a Monitor for the
// status endpoint.
type Snapshot struct {
	State  State
	Window WindowSnapshot
	// WarnTransitions and AlertTransitions count entries into the
	// respective states.
	WarnTransitions  uint64
	AlertTransitions uint64
	// ExemplarCount is the number of captured worst-residual samples.
	ExemplarCount int
}

// Snapshot returns the monitor's state under one lock acquisition.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		State:            m.machine.State(),
		Window:           m.tracker.Snapshot(),
		WarnTransitions:  m.machine.Transitions(StateWarn),
		AlertTransitions: m.machine.Transitions(StateAlert),
		ExemplarCount:    m.exemplars.Len(),
	}
}

// ExemplarRecords returns the captured worst-residual samples sorted
// worst-first.
func (m *Monitor) ExemplarRecords() []ExemplarRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exemplars.Records()
}
