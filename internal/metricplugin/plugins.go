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
// is the rate of the ticks the plugin is sampled at, the rate at which
// samples are written to the trace: each value averages its sensor
// over one period, 1/rateHz (each sensor integrates at its own, higher
// rate). Invalid configuration (a non-positive or non-finite rate, zero
// sensors) is an error, not a panic: plugin parameters arrive from
// campaign options and CLI flags, not compile-time data.
func NewPowerPlugin(model *power.Model, sensors []*power.Sensor, rateHz float64) (*PowerPlugin, error) {
	if math.IsNaN(rateHz) || math.IsInf(rateHz, 0) || rateHz <= 0 {
		return nil, fmt.Errorf("metricplugin: invalid power sampling rate %v", rateHz)
	}
	if len(sensors) == 0 {
		return nil, fmt.Errorf("metricplugin: power plugin needs at least one sensor")
	}
	return &PowerPlugin{model: model, sensors: sensors, rateHz: rateHz}, nil
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

// PerCore implements Plugin: the sensors measure the node's sockets.
func (p *PowerPlugin) PerCore() bool { return false }

// Sample implements Plugin.
func (p *PowerPlugin) Sample(dst []float64, iv *Interval) ([]float64, error) {
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
	out := slices.Grow(dst, len(iv.Ticks)*len(p.sensors))
	period := 1 / p.rateHz
	for range iv.Ticks {
		for si, sensor := range p.sensors {
			out = append(out, sensor.PhaseAverage(perSocket[si], period, iv.Rand))
		}
	}
	return out, nil
}

// VoltagePlugin reads the core supply voltage, standing in for the
// paper's scorep_x86_adapt plugin ("it is possible to read actual core
// voltages during runtime on contemporary Intel processors"). The zero
// value is ready to use.
type VoltagePlugin struct {
	// offsets holds one Sample call's per-core offsets; Sample reuses
	// it, so a plugin serves one caller at a time.
	offsets []float64
}

// Name implements Plugin.
func (p *VoltagePlugin) Name() string { return "scorep_x86_adapt" }

// Metrics implements Plugin.
func (p *VoltagePlugin) Metrics() []MetricSpec {
	return []MetricSpec{{Name: "core_voltage", Unit: "V", Mode: trace.MetricAsync}}
}

// PerCore implements Plugin: "scorep_x86_adapt supports per core
// metrics".
func (p *VoltagePlugin) PerCore() bool { return true }

// Sample implements Plugin. The plugin reads the voltage of every
// active core separately: each core's regulator sits at a slightly
// different point of the load line.
func (p *VoltagePlugin) Sample(dst []float64, iv *Interval) ([]float64, error) {
	if err := validateInterval(iv); err != nil {
		return dst, err
	}
	// Stable per-core offsets (process variation), ±0.4 %.
	p.offsets = resize(p.offsets, len(iv.Cores), iv.Platform.TotalCores())
	for i, c := range iv.Cores {
		p.offsets[i] = 1 + 0.004*math.Sin(float64(c)*2.39996)
	}
	// Register read-out granularity is ~1/8192 V on real parts. The
	// step's jitters, by tick and then core, are drawn into its values
	// in one block, then scaled.
	n, nCores := len(dst), len(iv.Cores)
	out := slices.Grow(dst, len(iv.Ticks)*nCores)[:n+len(iv.Ticks)*nCores]
	iv.Rand.JitterInto(out[n:], 0.0008)
	for t := n; t < len(out); t += nCores {
		v := out[t : t+nCores]
		for i := range v {
			v[i] = iv.Activity.CoreVoltageV * p.offsets[i] * v[i]
		}
	}
	return out, nil
}

// ApapiPlugin asynchronously samples a PAPI event set, standing in for
// scorep_plugin_apapi. Each metric sample carries the observed event
// *rate* (events per second) over the preceding sampling period; the
// phase-profile post-processing averages these rates over each phase.
type ApapiPlugin struct {
	set *pmu.EventSet
	// rates and shares hold one Sample call's node rates and core
	// shares; Sample reuses them, so a plugin serves one caller at a
	// time.
	rates, shares []float64
}

// NewApapiPlugin builds the plugin for one schedulable event set.
func NewApapiPlugin(set *pmu.EventSet) (*ApapiPlugin, error) {
	if !set.Schedulable() {
		return nil, fmt.Errorf("metricplugin: event set %v not schedulable in one run", set)
	}
	return &ApapiPlugin{set: set, rates: make([]float64, set.Len())}, nil
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

// PerCore implements Plugin. Hardware counters are per-core resources,
// so the sampler reads every active core separately; the node total is
// recovered in post-processing by summing across locations.
func (p *ApapiPlugin) PerCore() bool { return true }

// Sample implements Plugin. A mild deterministic load imbalance
// distributes the node aggregate over the cores.
func (p *ApapiPlugin) Sample(dst []float64, iv *Interval) ([]float64, error) {
	if err := validateInterval(iv); err != nil {
		return dst, err
	}
	counts := cpusim.Counters(iv.Activity, p.set)
	dur := iv.DurationS()
	ids := p.set.Events()
	for i, id := range ids {
		p.rates[i] = counts[id] / dur
	}
	room := iv.Platform.TotalCores()
	p.shares = resize(p.shares, len(iv.Cores), room)
	coreShares(iv, p.shares)
	// The step's read-out errors, in one block: for each tick and
	// event a common-mode error (sampling-window alignment hits every
	// core's read of this event alike), then an independent per-core
	// component. The block is drawn into the room the values take,
	// grown by one value per tick and event, so it costs no buffer of
	// its own; each value lands at or before the first error it reads,
	// after the errors before it have been read.
	n, shares := len(dst), p.shares
	width := 1 + len(shares)
	noise := slices.Grow(dst, len(iv.Ticks)*len(ids)*width)[:n+len(iv.Ticks)*len(ids)*width]
	iv.Rand.JitterInto(noise[n:], 0.012)
	end := n
	for e := n; e < len(noise); e += width {
		nodeRate := p.rates[(e-n)/width%len(ids)]
		common, perCore := noise[e], noise[e+1:e+width]
		out := noise[end : end+len(shares)]
		for ci, share := range shares {
			out[ci] = nodeRate * share * common * perCore[ci]
		}
		end += len(shares)
	}
	return noise[:end], nil
}
