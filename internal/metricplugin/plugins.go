package metricplugin

import (
	"fmt"
	"math"
	"slices"

	"pmcpower/internal/cpusim"
	"pmcpower/internal/pmu"
	"pmcpower/internal/power"
	"pmcpower/internal/trace"
)

// PowerPlugin samples the power instrumentation, standing in for the
// paper's scorep_ni plugin backed by "calibrated high resolution power
// sensors at the 12 V inputs to each socket": one independently
// calibrated sensor — and one trace metric channel — per socket. The
// node power the workflow regresses against is the channels' sum,
// recovered during post-processing.
type PowerPlugin struct {
	model   *power.Model
	sensors []*power.Sensor
	rateHz  float64
}

// NewPowerPlugin builds the plugin with one sensor per socket. rateHz
// is the rate at which samples are written to the trace (each sensor
// integrates at its own, higher rate). Invalid configuration (a
// non-positive or non-finite rate, zero sensors) is an error, not a
// panic: plugin parameters arrive from campaign options and CLI flags,
// not compile-time data.
func NewPowerPlugin(model *power.Model, sensors []*power.Sensor, rateHz float64) (*PowerPlugin, error) {
	if err := validRate("power", rateHz); err != nil {
		return nil, err
	}
	if len(sensors) == 0 {
		return nil, fmt.Errorf("metricplugin: power plugin needs at least one sensor")
	}
	return &PowerPlugin{model: model, sensors: sensors, rateHz: rateHz}, nil
}

// validRate rejects non-positive, NaN, and infinite sampling rates.
func validRate(plugin string, rateHz float64) error {
	if math.IsNaN(rateHz) || math.IsInf(rateHz, 0) || rateHz <= 0 {
		return fmt.Errorf("metricplugin: invalid %s sampling rate %v", plugin, rateHz)
	}
	return nil
}

// Name implements Plugin.
func (p *PowerPlugin) Name() string { return "scorep_ni" }

// Metrics implements Plugin: one power channel per socket sensor.
func (p *PowerPlugin) Metrics() []MetricSpec {
	out := make([]MetricSpec, len(p.sensors))
	for s := range p.sensors {
		out[s] = MetricSpec{Name: fmt.Sprintf("socket%d_power", s), Unit: "W", Mode: trace.MetricAsync}
	}
	return out
}

// Sample implements Plugin.
func (p *PowerPlugin) Sample(dst []SampleValue, iv *Interval) ([]SampleValue, error) {
	if err := validateInterval(iv); err != nil {
		return dst, err
	}
	if len(p.sensors) != iv.Platform.Sockets {
		return dst, fmt.Errorf("metricplugin: %d power sensors for %d sockets", len(p.sensors), iv.Platform.Sockets)
	}
	perSocket, err := p.model.SocketPowers(iv.Platform, iv.Activity)
	if err != nil {
		return dst, err
	}
	ts := ticks(iv.StartNs, iv.EndNs, p.rateHz)
	out := slices.Grow(dst, len(ts)*len(p.sensors))
	period := 1 / p.rateHz
	for _, t := range ts {
		for si, sensor := range p.sensors {
			out = append(out, SampleValue{
				MetricIndex: si,
				TimeNs:      t,
				Value:       sensor.PhaseAverage(perSocket[si], period, iv.Rand),
				Core:        NodeLevel,
			})
		}
	}
	return out, nil
}

// VoltagePlugin reads the core supply voltage, standing in for the
// paper's scorep_x86_adapt plugin ("it is possible to read actual core
// voltages during runtime on contemporary Intel processors").
type VoltagePlugin struct {
	rateHz float64
	// offsets and noise hold one Sample call's per-core offsets and one
	// tick's read-out jitters; Sample reuses them, so a plugin serves
	// one caller at a time.
	offsets, noise []float64
}

// NewVoltagePlugin builds the plugin.
func NewVoltagePlugin(rateHz float64) (*VoltagePlugin, error) {
	if err := validRate("voltage", rateHz); err != nil {
		return nil, err
	}
	return &VoltagePlugin{rateHz: rateHz}, nil
}

// Name implements Plugin.
func (p *VoltagePlugin) Name() string { return "scorep_x86_adapt" }

// Metrics implements Plugin.
func (p *VoltagePlugin) Metrics() []MetricSpec {
	return []MetricSpec{{Name: "core_voltage", Unit: "V", Mode: trace.MetricAsync}}
}

// Sample implements Plugin. The plugin reads the voltage of every
// active core separately ("scorep_x86_adapt supports per core
// metrics"): each core's regulator sits at a slightly different point
// of the load line.
func (p *VoltagePlugin) Sample(dst []SampleValue, iv *Interval) ([]SampleValue, error) {
	if err := validateInterval(iv); err != nil {
		return dst, err
	}
	cores := iv.ActiveCores()
	room := iv.Platform.TotalCores()
	// Stable per-core offsets (process variation), ±0.4 %.
	p.offsets = resize(p.offsets, len(cores), room)
	for i, c := range cores {
		p.offsets[i] = 1 + 0.004*math.Sin(float64(c)*2.39996)
	}
	ts := ticks(iv.StartNs, iv.EndNs, p.rateHz)
	p.noise = resize(p.noise, len(cores), room)
	out := slices.Grow(dst, len(ts)*len(cores))
	for _, t := range ts {
		// Register read-out granularity is ~1/8192 V on real parts.
		iv.Rand.JitterInto(p.noise, 0.0008)
		for i, c := range cores {
			v := iv.Activity.CoreVoltageV * p.offsets[i] * p.noise[i]
			out = append(out, SampleValue{MetricIndex: 0, TimeNs: t, Value: v, Core: c})
		}
	}
	return out, nil
}

// ApapiPlugin asynchronously samples a PAPI event set, standing in for
// scorep_plugin_apapi. Each metric sample carries the observed event
// *rate* (events per second) over the preceding sampling period; the
// phase-profile post-processing averages these rates over each phase.
type ApapiPlugin struct {
	set    *pmu.EventSet
	rateHz float64
	// rates, shares and noise hold one Sample call's node rates, core
	// shares and one event's read-out jitters; Sample reuses them, so a
	// plugin serves one caller at a time.
	rates, shares, noise []float64
}

// NewApapiPlugin builds the plugin for one schedulable event set.
func NewApapiPlugin(set *pmu.EventSet, rateHz float64) (*ApapiPlugin, error) {
	if err := validRate("apapi", rateHz); err != nil {
		return nil, err
	}
	if !set.Schedulable() {
		return nil, fmt.Errorf("metricplugin: event set %v not schedulable in one run", set)
	}
	return &ApapiPlugin{set: set, rateHz: rateHz, rates: make([]float64, set.Len())}, nil
}

// Name implements Plugin.
func (p *ApapiPlugin) Name() string { return "scorep_plugin_apapi" }

// Metrics implements Plugin. Metric names are the PAPI event names.
func (p *ApapiPlugin) Metrics() []MetricSpec {
	ids := p.set.Events()
	out := make([]MetricSpec, len(ids))
	for i, id := range ids {
		out[i] = MetricSpec{Name: pmu.Lookup(id).Name, Unit: "events/s", Mode: trace.MetricAsync}
	}
	return out
}

// Sample implements Plugin. Hardware counters are per-core resources,
// so the sampler reads every active core separately; the node total is
// recovered in post-processing by summing across locations. A mild
// deterministic load imbalance distributes the node aggregate over the
// cores.
func (p *ApapiPlugin) Sample(dst []SampleValue, iv *Interval) ([]SampleValue, error) {
	if err := validateInterval(iv); err != nil {
		return dst, err
	}
	counts := cpusim.Counters(iv.Activity, p.set)
	dur := iv.DurationS()
	ids := p.set.Events()
	for i, id := range ids {
		p.rates[i] = counts[id] / dur
	}
	cores := iv.ActiveCores()
	ts := ticks(iv.StartNs, iv.EndNs, p.rateHz)
	room := iv.Platform.TotalCores()
	p.shares = resize(p.shares, len(cores), room)
	coreShares(iv, p.shares)
	p.noise = resize(p.noise, 1+len(cores), 1+room)
	out := slices.Grow(dst, len(ts)*len(ids)*len(cores))
	for _, t := range ts {
		for i, nodeRate := range p.rates {
			// A common-mode read-out error (sampling-window alignment
			// hits every core's read of this event alike), then an
			// independent per-core component: one block per event.
			iv.Rand.JitterInto(p.noise, 0.012)
			common, perCore := p.noise[0], p.noise[1:]
			for ci, c := range cores {
				rate := nodeRate * p.shares[ci] * common * perCore[ci]
				out = append(out, SampleValue{MetricIndex: i, TimeNs: t, Value: rate, Core: c})
			}
		}
	}
	return out, nil
}
