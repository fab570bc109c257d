// Package scenario makes "handles many scenarios" an enumerable,
// checkable contract. A Scenario is a named stress script against the
// real stack — the serving daemon, the streaming estimator, the
// simulated platform — broken into Steps that drive load and
// Checkpoints that assert invariants (error budgets, accuracy bounds,
// latency quantiles, capacity behavior) over what the steps observed.
// The Harness runs scenarios with panic containment (a panic anywhere
// is a failed scenario, never a crashed process) and renders the
// outcome as a console table and a machine-readable JSON report, so
// the same matrix gates CI and reproduces locally via `make
// scenarios`.
package scenario

import (
	"fmt"
	"sync"

	"pmcpower/internal/stats"
)

// Scenario is one named stress script: sequential Steps that build
// state and drive load, then Checkpoints that assert invariants over
// the collected observations. Scenario values returned by Builtin
// carry per-run closure state and are meant to be run once per
// Harness.
type Scenario struct {
	// Name identifies the scenario in reports and -run filters:
	// lower-case, dash-separated.
	Name string
	// Description is one sentence of what the scenario stresses.
	Description string
	// Steps run in order; the first error or panic stops the script.
	Steps []Step
	// Checkpoints run after all steps succeeded (they are skipped, and
	// the scenario failed, otherwise). Every scenario additionally has
	// the implicit no-panic checkpoint.
	Checkpoints []Checkpoint
	// Cleanup, when non-nil, always runs after the checkpoints —
	// including when a step failed — to release servers and goroutines.
	// A cleanup panic fails the scenario like any other.
	Cleanup func(*Context)
}

// Step is one unit of scenario work. A returned error fails the
// scenario and skips the remaining steps; a panic is contained by the
// harness and does the same.
type Step struct {
	Name string
	Run  func(*Context) error
}

// Checkpoint is one invariant over the state a scenario's steps left
// behind. A nil return is a pass; an error is a failure with the
// error text as the detail.
type Checkpoint struct {
	Name  string
	Check func(*Context) error
}

// Context is what steps and checkpoints receive: the shared trained
// environment, a metrics collector for observations the checkpoints
// and the report consume, and a log for human-facing breadcrumbs.
type Context struct {
	Env *Env
	M   *Metrics

	mu   sync.Mutex
	logs []string
}

// Logf records one formatted breadcrumb into the scenario's report.
func (c *Context) Logf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
}

// Logs returns the breadcrumbs recorded so far.
func (c *Context) Logs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.logs...)
}

// Metrics collects a scenario's observations: named counters
// (Add/Count) and named series (Observe/Series). It is goroutine-safe
// so concurrent traffic generators can feed it directly.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]float64
	series   map[string][]float64
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{counters: map[string]float64{}, series: map[string][]float64{}}
}

// Add increments the named counter by delta.
func (m *Metrics) Add(name string, delta float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters[name] += delta
}

// Count returns the named counter (zero when never added).
func (m *Metrics) Count(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Observe appends one value to the named series.
func (m *Metrics) Observe(name string, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.series[name] = append(m.series[name], v)
}

// ObserveAll appends all values to the named series.
func (m *Metrics) ObserveAll(name string, vs []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.series[name] = append(m.series[name], vs...)
}

// Series returns a copy of the named series (nil when empty).
func (m *Metrics) Series(name string) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.series[name]...)
}

// MetricSummary is the report form of one collected metric: a plain
// counter value, or the descriptive summary of a series.
type MetricSummary struct {
	// Kind is "counter" or "series".
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"` // counter value
	N     int     `json:"n,omitempty"`     // series length
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Summaries renders every collected metric, sorted by name. A series
// that observed nothing reports n=0 and zero statistics; it does not
// panic.
func (m *Metrics) Summaries() map[string]MetricSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]MetricSummary, len(m.counters)+len(m.series))
	for name, v := range m.counters {
		out[name] = MetricSummary{Kind: "counter", Value: v}
	}
	for name, xs := range m.series {
		sum := stats.Summarize(xs)
		s := MetricSummary{Kind: "series", N: sum.N, Min: sum.Min, Max: sum.Max, Mean: sum.Mean}
		if len(xs) > 0 {
			s.P99 = stats.Quantile(xs, 0.99)
		}
		out[name] = s
	}
	return out
}
