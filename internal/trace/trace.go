// Package trace implements a compact binary event-trace format in the
// spirit of Open Trace Format 2 (OTF2), the format Score-P emits and
// the paper's acquisition pipeline is built around: "It consists of a
// stream of events chronologically ordered by the time of their
// occurrence, and information about the state and configuration of the
// target system."
//
// An archive holds definition records (locations, regions, metrics)
// followed by an event stream (Enter, Leave, Metric). Encoding uses
// unsigned varints with per-location timestamp deltas — the "enhanced
// encoding techniques" of Wagner et al. that OTF2 applies to keep
// traces small.
//
// The package replaces Score-P/OTF2 in the reproduction: the simulated
// runs are recorded through metric plugins as an event stream, and the
// phase-profile post-processing (internal/phaseprofile) folds that
// stream, as it is recorded or from an archive, just as the paper's
// HAEC-SIM module and custom OTF2 tool consume real traces.
package trace

import "fmt"

// Magic identifies archive files/streams.
const Magic = "PMCTRC.1"

// Ref is a definition reference (location, region or metric ID).
type Ref uint32

// MetricMode describes how a metric's samples relate to program
// execution, mirroring the Score-P metric plugin interface's
// synchronicity modes.
type MetricMode uint8

const (
	// MetricSync metrics are sampled at event boundaries (strictly
	// synchronous plugins).
	MetricSync MetricMode = iota
	// MetricAsync metrics are sampled on their own schedule and
	// attached to the trace with their own timestamps (asynchronous
	// plugins such as power meters and the apapi sampler).
	MetricAsync
)

func (m MetricMode) String() string {
	switch m {
	case MetricSync:
		return "sync"
	case MetricAsync:
		return "async"
	default:
		return fmt.Sprintf("MetricMode(%d)", uint8(m))
	}
}

// Location is an execution location (a thread on a core), a
// definition record.
type Location struct {
	Ref  Ref
	Name string
}

// Region is a code region (a phase of the instrumented application).
type Region struct {
	Ref  Ref
	Name string
}

// Metric describes one recorded metric (power, voltage, or one PMC).
type Metric struct {
	Ref  Ref
	Name string
	Unit string
	Mode MetricMode
}

// EventKind discriminates event records.
type EventKind uint8

const (
	// KindEnter marks entry into a region.
	KindEnter EventKind = 1
	// KindLeave marks exit from a region.
	KindLeave EventKind = 2
	// KindMetric carries one metric sample.
	KindMetric EventKind = 3
)

func (k EventKind) String() string {
	switch k {
	case KindEnter:
		return "Enter"
	case KindLeave:
		return "Leave"
	case KindMetric:
		return "Metric"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one trace event. TimeNs is nanoseconds since trace start.
// Region is set for Enter/Leave; Metric and Value for Metric events.
type Event struct {
	Kind     EventKind
	Location Ref
	TimeNs   uint64
	Region   Ref
	Metric   Ref
	Value    float64
}

// Definitions is the definition section of an archive. A definition's
// Ref is its position in its table.
type Definitions struct {
	Locations []Location
	Regions   []Region
	Metrics   []Metric
}

// AddLocation appends an execution location and returns its reference.
func (d *Definitions) AddLocation(name string) Ref {
	ref := Ref(len(d.Locations))
	d.Locations = append(d.Locations, Location{Ref: ref, Name: name})
	return ref
}

// AddRegion appends a code region and returns its reference.
func (d *Definitions) AddRegion(name string) Ref {
	ref := Ref(len(d.Regions))
	d.Regions = append(d.Regions, Region{Ref: ref, Name: name})
	return ref
}

// AddMetric appends a metric and returns its reference.
func (d *Definitions) AddMetric(name, unit string, mode MetricMode) Ref {
	ref := Ref(len(d.Metrics))
	d.Metrics = append(d.Metrics, Metric{Ref: ref, Name: name, Unit: unit, Mode: mode})
	return ref
}

// CheckEvent reports whether ev is a valid next event after one at
// lastNs: its kind is known, its location and its region or metric are
// defined, and it does not go back in time. Writer.WriteEvent and
// phaseprofile.Builder.Event both apply it, so they reject the same
// events with the same error.
func (d *Definitions) CheckEvent(ev Event, lastNs uint64) error {
	if ev.TimeNs < lastNs {
		return fmt.Errorf("trace: event at %d ns violates chronological order (last %d ns)", ev.TimeNs, lastNs)
	}
	// Unsigned, so a Ref of 2^31 or more cannot turn negative on a
	// 32-bit int and slip past the check.
	if uint(ev.Location) >= uint(len(d.Locations)) {
		return fmt.Errorf("trace: undefined location %d", ev.Location)
	}
	switch ev.Kind {
	case KindEnter, KindLeave:
		if uint(ev.Region) >= uint(len(d.Regions)) {
			return fmt.Errorf("trace: undefined region %d", ev.Region)
		}
	case KindMetric:
		if uint(ev.Metric) >= uint(len(d.Metrics)) {
			return fmt.Errorf("trace: undefined metric %d", ev.Metric)
		}
	default:
		return fmt.Errorf("trace: unknown event kind %d", ev.Kind)
	}
	return nil
}
