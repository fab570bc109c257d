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
// Plugins produce timestamped samples for a steady-state interval of
// simulated execution; the acquisition recorder writes them into the
// trace archive as async metric events.
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

// Sample is one timestamped value of a plugin metric. MetricIndex
// refers to the plugin's Metrics() slice. Core identifies the
// hardware core the value was read from (per-core plugins such as
// the voltage reader and the PMC sampler); NodeLevel marks node-wide
// metrics such as the power instrumentation.
type SampleValue struct {
	MetricIndex int
	TimeNs      uint64
	Value       float64
	// Core is the hardware core index, or NodeLevel.
	Core int
}

// NodeLevel is the Core value of node-wide samples.
const NodeLevel = -1

// Interval describes one steady-state stretch of simulated execution
// a plugin is asked to cover.
type Interval struct {
	StartNs  uint64
	EndNs    uint64
	Activity *cpusim.Activity
	Platform *cpusim.Platform
	// Rand is the plugin's noise stream for this interval.
	Rand *rng.Rand
}

// ActiveCores lists the hardware core indices running the workload
// during the interval, derived from the activity's compact pinning
// (socket 0 fills first).
func (iv *Interval) ActiveCores() []int {
	cores := make([]int, 0, max(iv.Activity.ActiveCores[0]+iv.Activity.ActiveCores[1], iv.Activity.Threads))
	for c := 0; c < iv.Activity.ActiveCores[0]; c++ {
		cores = append(cores, c)
	}
	for c := 0; c < iv.Activity.ActiveCores[1]; c++ {
		cores = append(cores, iv.Platform.CoresPerSocket+c)
	}
	if len(cores) == 0 {
		// Activity predates core accounting; fall back to thread count.
		for c := 0; c < iv.Activity.Threads; c++ {
			cores = append(cores, c)
		}
	}
	return cores
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
	// Sample appends the plugin's samples for a steady-state interval
	// to dst, in ascending time order, and returns the extended slice.
	// On error it returns dst unchanged.
	Sample(dst []SampleValue, iv *Interval) ([]SampleValue, error)
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

// ticks returns sample timestamps at rateHz covering [start, end),
// phase-aligned to the interval start.
func ticks(startNs, endNs uint64, rateHz float64) []uint64 {
	if rateHz <= 0 {
		return nil
	}
	stepNs := uint64(1e9 / rateHz)
	if stepNs == 0 {
		stepNs = 1
	}
	var out []uint64
	for t := startNs; t < endNs; t += stepNs {
		out = append(out, t)
	}
	if len(out) == 0 {
		out = append(out, startNs)
	}
	return out
}
