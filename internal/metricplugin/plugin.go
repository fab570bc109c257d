// Package metricplugin models the Score-P metric plugin interface the
// paper uses to attach power, voltage and PMC data to application
// traces: "A metric plugin is an external dynamic linked library,
// which implements the Score-P metric plugin interface."
//
// Three plugins mirror the paper's setup:
//
//   - Power (the scorep_ni equivalent) samples one calibrated sensor
//     per socket, as on the paper's instrumented system;
//   - Voltage (the scorep_x86_adapt equivalent) reads per-core supply
//     voltage;
//   - Apapi (the scorep_plugin_apapi equivalent) asynchronously samples
//     a PAPI event set and reports counter rates.
//
// Plugins produce dense blocks of values for a steady-state interval
// of simulated execution, at ticks and on cores the caller hands every
// plugin alike; the acquisition recorder folds them into phase
// profiles and, on request, writes them into the trace archive as
// async metric events.
package metricplugin

import (
	"fmt"

	"pmcpower/internal/cpusim"
	"pmcpower/internal/rng"
	"pmcpower/internal/trace"
)

// MetricSpec declares one metric a plugin provides.
type MetricSpec struct {
	Name string
	Unit string
	Mode trace.MetricMode
}

// Interval describes one steady-state stretch of simulated execution
// the plugins are asked to cover.
type Interval struct {
	StartNs  uint64
	EndNs    uint64
	Activity *cpusim.Activity
	Platform *cpusim.Platform
	// Ticks are the sample times, ascending within [StartNs, EndNs],
	// and Cores the hardware cores running the workload. The caller
	// computes both once per interval (Ticks, ActiveCores) and hands
	// them to every plugin: each samples at those ticks and, if it
	// samples per core, on those cores.
	Ticks []uint64
	Cores []int
	// Rand is the plugin's noise stream for this interval.
	Rand *rng.Rand
}

// ActiveCores appends to dst the hardware core indices running act on
// p, derived from the activity's compact pinning (socket 0 fills
// first), and returns the extended slice.
func ActiveCores(dst []int, p *cpusim.Platform, act *cpusim.Activity) []int {
	n := len(dst)
	for c := 0; c < act.ActiveCores[0]; c++ {
		dst = append(dst, c)
	}
	for c := 0; c < act.ActiveCores[1]; c++ {
		dst = append(dst, p.CoresPerSocket+c)
	}
	if len(dst) == n {
		// Activity predates core accounting; fall back to thread count.
		for c := 0; c < act.Threads; c++ {
			dst = append(dst, c)
		}
	}
	return dst
}

// Ticks appends to dst the sample times at rateHz covering
// [startNs, endNs), phase-aligned to startNs, and returns the extended
// slice. A window shorter than one period gets one tick, at startNs; a
// rate that is not positive gets none.
func Ticks(dst []uint64, startNs, endNs uint64, rateHz float64) []uint64 {
	if rateHz <= 0 {
		return dst
	}
	stepNs := uint64(1e9 / rateHz)
	if stepNs == 0 {
		stepNs = 1
	}
	n := len(dst)
	for t := startNs; t < endNs; t += stepNs {
		dst = append(dst, t)
	}
	if len(dst) == n {
		dst = append(dst, startNs)
	}
	return dst
}

// coreShares sets shares to the work shares of len(shares) active
// cores, summing to 1: a mild, deterministic load imbalance drawn from
// the interval's noise stream.
func coreShares(iv *Interval, shares []float64) {
	iv.Rand.JitterInto(shares, 0.04)
	var sum float64
	for _, s := range shares {
		sum += s
	}
	for i := range shares {
		shares[i] /= sum
	}
}

// resize returns buf with length n. A buf too short for n is replaced
// by one with room for max(n, room) values, so a run whose steps sweep
// the thread count up allocates it once.
func resize(buf []float64, n, room int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, max(n, room))
	}
	return buf[:n]
}

// DurationS returns the interval length in seconds.
func (iv *Interval) DurationS() float64 {
	return float64(iv.EndNs-iv.StartNs) / 1e9
}

// Plugin is the metric plugin interface.
type Plugin interface {
	// Name identifies the plugin (e.g. "scorep_ni").
	Name() string
	// Metrics lists the metrics the plugin records.
	Metrics() []MetricSpec
	// PerCore reports where the plugin samples: at every active core
	// (one location per core of Interval.Cores) or at the node (one
	// location).
	PerCore() bool
	// Sample appends the plugin's values for a steady-state interval to
	// dst and returns the extended slice: one value per tick, metric and
	// location, ordered by tick, then by metric index, then by location,
	// so len(iv.Ticks) × len(Metrics()) × locations values. On error it
	// returns dst unchanged.
	Sample(dst []float64, iv *Interval) ([]float64, error)
}

// validateInterval rejects malformed intervals up front so individual
// plugins can assume sanity.
func validateInterval(iv *Interval) error {
	if iv.EndNs <= iv.StartNs {
		return fmt.Errorf("metricplugin: empty interval [%d,%d)", iv.StartNs, iv.EndNs)
	}
	if iv.Activity == nil || iv.Platform == nil {
		return fmt.Errorf("metricplugin: interval missing activity or platform")
	}
	if iv.Rand == nil {
		return fmt.Errorf("metricplugin: interval missing noise stream")
	}
	return nil
}
