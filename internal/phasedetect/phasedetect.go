// Package phasedetect segments a sampled metric time series into
// steady-state phases — the job the paper delegates to HAEC-SIM for
// roco2 traces. Region instrumentation (Enter/Leave) gives exact phase
// boundaries; for un-instrumented workloads the boundaries must be
// recovered from the signal itself. The detector finds change points
// in a noisy, piecewise-constant signal (power or a counter rate) with
// a sliding-window mean-shift test.
package phasedetect

import (
	"fmt"
	"math"
)

// Sample is one observation of the monitored signal.
type Sample struct {
	TimeNs uint64
	Value  float64
}

// Segment is one detected steady-state phase.
type Segment struct {
	StartNs uint64
	EndNs   uint64
	// Mean and Std summarize the signal inside the segment.
	Mean float64
	Std  float64
	// N is the number of samples in the segment.
	N int
}

// The detector's fixed parameters.
const (
	// window is the number of recent samples whose mean is compared
	// against the current segment mean; it is also the minimum number
	// of samples per segment (shorter candidate segments are merged
	// into their successor).
	window = 4
	// relThreshold is the relative mean shift that opens a new
	// segment: |window mean − segment mean| > relThreshold·|segment
	// mean|.
	relThreshold = 0.03
	// sigmaThreshold additionally requires the shift to exceed this
	// many segment standard deviations (guards against triggering on
	// a quiet signal's noise floor).
	sigmaThreshold = 3
)

// Detect segments the samples into steady-state phases. Samples must
// be in ascending time order.
func Detect(samples []Sample) ([]Segment, error) {
	if len(samples) < 2*window {
		return nil, fmt.Errorf("phasedetect: need at least %d samples, have %d", 2*window, len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TimeNs < samples[i-1].TimeNs {
			return nil, fmt.Errorf("phasedetect: samples out of order at index %d", i)
		}
	}

	var segments []Segment
	segStart := 0
	// Running statistics of the current segment (Welford).
	var n, mean, m2 float64
	push := func(v float64) {
		n++
		d := v - mean
		mean += d / n
		m2 += d * (v - mean)
	}
	reset := func() { n, mean, m2 = 0, 0, 0 }
	std := func() float64 {
		if n < 2 {
			return 0
		}
		return math.Sqrt(m2 / (n - 1))
	}

	closeSegment := func(endIdx int) {
		// Segment covers samples[segStart:endIdx) and extends to the
		// first sample of the next segment (or the last sample time).
		endNs := samples[len(samples)-1].TimeNs
		if endIdx < len(samples) {
			endNs = samples[endIdx].TimeNs
		}
		segments = append(segments, Segment{
			StartNs: samples[segStart].TimeNs,
			EndNs:   endNs,
			Mean:    mean,
			Std:     std(),
			N:       endIdx - segStart,
		})
	}

	for i, s := range samples {
		inSegment := i - segStart
		if inSegment < window {
			push(s.Value)
			continue
		}
		// Mean of the trailing window.
		var wsum float64
		for j := i - window + 1; j <= i; j++ {
			wsum += samples[j].Value
		}
		wmean := wsum / window
		shift := math.Abs(wmean - mean)
		trigger := shift > relThreshold*math.Abs(mean) &&
			shift > sigmaThreshold*std()/math.Sqrt(window)
		if trigger {
			// Boundary at the first sample of the window that actually
			// deviates from the segment level — the window mean lags
			// the true change point by up to window−1 samples.
			boundary := i
			for j := i - window + 1; j <= i; j++ {
				if math.Abs(samples[j].Value-mean) > relThreshold*math.Abs(mean) {
					boundary = j
					break
				}
			}
			if boundary <= segStart {
				boundary = i
			}
			// Rewind the running stats to exclude the window samples
			// that belong to the new segment.
			reset()
			for j := segStart; j < boundary; j++ {
				push(samples[j].Value)
			}
			closeSegment(boundary)
			segStart = boundary
			reset()
			for j := boundary; j <= i; j++ {
				push(samples[j].Value)
			}
			continue
		}
		push(s.Value)
	}
	closeSegment(len(samples))
	return segments, nil
}
