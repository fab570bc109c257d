// Package phaseprofile implements the post-processing stage of the
// paper's workflow: turning application traces into phase profiles.
//
// "The resulting phase profile contains the start and end time, the
// average over time for each async metric, the average value of the
// recorded PMC values, the number of active threads, and the
// identification of the application."
//
// It stands in for the HAEC-SIM phase-profile module (used for roco2
// traces) and the custom python OTF2 post-processing tool (used for
// SPEC traces). Both consume the same archive format here.
//
// Because the hardware cannot record all PMC events simultaneously,
// each workload is traced several times with different event sets;
// CombineRuns merges the per-run profiles into complete rows, exactly
// as the paper merges phase profiles from multiple runs.
package phaseprofile

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"pmcpower/internal/pmu"
	"pmcpower/internal/trace"
)

// Phase is one post-processed profile row.
type Phase struct {
	// App identifies the application (workload name).
	App string
	// Region is the phase (trace region) name.
	Region string
	// Threads is the number of active threads during the phase.
	Threads int
	// FreqMHz is the core frequency during the run.
	FreqMHz int
	StartNs uint64
	EndNs   uint64

	// PowerW and VoltageV are time averages of the async power and
	// voltage metrics over the phase.
	PowerW   float64
	VoltageV float64

	// Rates holds average PMC event rates (events per second) for the
	// events recorded in this run.
	Rates map[pmu.EventID]float64
}

// DurationS returns the phase duration in seconds.
func (p *Phase) DurationS() float64 { return float64(p.EndNs-p.StartNs) / 1e9 }

// Well-known auxiliary metric names written by the acquisition
// recorder alongside plugin metrics. Power arrives as one channel per
// socket ("socket0_power", …); the legacy single-channel name
// "node_power" is also recognized. All power channels of a phase are
// summed into Phase.PowerW.
const (
	MetricPower   = "node_power"
	MetricVoltage = "core_voltage"
	MetricThreads = "active_threads"
	MetricFreq    = "core_frequency"
)

// IsPowerMetric reports whether a metric definition name is a power
// channel.
func IsPowerMetric(name string) bool {
	if name == MetricPower {
		return true
	}
	return strings.HasPrefix(name, "socket") && strings.HasSuffix(name, "_power")
}

// FromTrace extracts phase profiles from an archive: it decodes the
// events and folds them with a Builder.
func FromTrace(r io.Reader, app string) ([]*Phase, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(tr.Definitions(), app)
	for {
		ev, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := b.Event(ev); err != nil {
			return nil, err
		}
	}
	return b.Phases()
}

// metricClass is what a metric definition's name makes of its samples.
// The zero class folds nowhere, so the zero Target is inert.
type metricClass uint8

const (
	mcOther metricClass = iota
	mcPower
	mcVoltage
	mcThreads
	mcFreq
	mcPMC
)

type agg struct {
	sum     float64
	weightS float64
}

// cell aggregates one (value slot, location) pair. Its key sorts
// slot-major, then by ascending location ref.
type cell struct {
	key uint64 // slot<<32 | location ref
	agg
}

// Builder folds one run into phase profiles as its events arrive,
// from an archive (FromTrace) or straight from the recorder. The
// recorder writes Enter/Leave around every phase on the master
// location and annotates each phase with active_threads and
// core_frequency sync metrics; power, voltage and PAPI rates arrive as
// async samples. Event folds one event. A recorder that holds its
// samples outside trace.Event folds them in two steps: Resolve, once
// per metric and location, then AddStrided, once per metric and
// location of each block of samples.
//
// Aggregation state is reused across phases: once a (metric,
// location) pair has been seen, its samples allocate nothing. Beyond
// the definition table, work and memory grow with the samples a run
// carries, never with the number of locations or metrics it declares.
//
// The first error from Event ends the run; the Builder must not be fed
// further.
type Builder struct {
	defs trace.Definitions
	app  string

	// Metric classification by definition name. slotOf numbers each
	// power metric's channel and each voltage or PMC metric's value
	// slot: slot 0 is voltage, and every distinct PMC event gets one
	// slot after it, whatever the number of metrics naming it.
	classOf   []metricClass
	slotOf    []int
	slotEvent []pmu.EventID

	// Per-core instruments (voltage, PMCs) are aggregated per trace
	// location first: a core's samples average to that core's mean,
	// then cores combine — voltages by averaging (the node-level
	// reading), counter rates by summing (per-core counters add up to
	// the node total).
	//
	// A (slot, location) pair gets a cell when it is first resolved:
	// on its first sample through Event, or by Resolve. Each phase
	// lists the power channels and cells it touched; flush folds
	// just those in ascending ref order — float addition is not
	// associative, and reproducibility is non-negotiable — and zeroes
	// them for the next phase.
	//
	// A recorder archive holds every tick's samples in the same order,
	// so Event creates cells in that order, and the cell after the last
	// one used is checked before the map.
	powerA   []agg // one aggregate per power channel
	powered  []int // channels sampled this phase
	cellOf   map[uint64]int
	cells    []cell
	nextCell int
	touched  []int // cells sampled this phase

	phases  []*Phase
	current *Phase
	lastNs  uint64
}

// NewBuilder starts a run whose events reference defs. It keeps its
// own copy of the table's slice headers, so definitions added to defs
// afterwards stay undefined to the Builder.
func NewBuilder(defs *trace.Definitions, app string) *Builder {
	b := &Builder{
		defs:      *defs,
		app:       app,
		classOf:   make([]metricClass, len(defs.Metrics)),
		slotOf:    make([]int, len(defs.Metrics)),
		slotEvent: []pmu.EventID{-1}, // slot 0: voltage
		cellOf:    make(map[uint64]int),
	}
	eventSlot := make([]int, pmu.NumEvents()) // 0 = no slot yet
	nPower := 0
	for i, m := range defs.Metrics {
		switch {
		case IsPowerMetric(m.Name):
			b.classOf[i] = mcPower
			b.slotOf[i] = nPower
			nPower++
			continue
		}
		switch m.Name {
		case MetricVoltage:
			b.classOf[i] = mcVoltage
		case MetricThreads:
			b.classOf[i] = mcThreads
		case MetricFreq:
			b.classOf[i] = mcFreq
		default:
			if ev, err := pmu.ByName(m.Name); err == nil {
				b.classOf[i] = mcPMC
				if eventSlot[ev.ID] == 0 {
					eventSlot[ev.ID] = len(b.slotEvent)
					b.slotEvent = append(b.slotEvent, ev.ID)
				}
				b.slotOf[i] = eventSlot[ev.ID]
			} else {
				b.classOf[i] = mcOther
			}
		}
	}
	b.powerA = make([]agg, nPower)
	return b
}

// Reset starts a new run whose events reference defs, for app, as
// NewBuilder does, and reports whether the Targets resolved so far stay
// valid. They do when defs names the same metrics as the previous
// run's table, in the same order: the Builder keeps its metric classes
// and cells, zeroed, so a recorder whose runs define the same metrics
// and locations resolves their Targets once, not once per run.
// Otherwise the Builder starts from nothing and Targets must be
// resolved again. The previous run's phases stay with their caller.
func (b *Builder) Reset(defs *trace.Definitions, app string) bool {
	same := len(defs.Metrics) == len(b.defs.Metrics)
	for i := 0; same && i < len(defs.Metrics); i++ {
		same = defs.Metrics[i].Name == b.defs.Metrics[i].Name
	}
	if !same {
		*b = *NewBuilder(defs, app)
		return false
	}
	b.defs, b.app = *defs, app
	clear(b.powerA)
	for i := range b.cells {
		b.cells[i].agg = agg{}
	}
	b.powered, b.touched, b.nextCell = b.powered[:0], b.touched[:0], 0
	b.phases, b.current, b.lastNs = nil, nil, 0
	return true
}

// Event folds the next event of the run. It applies the same checks
// as trace.Writer.WriteEvent, with the same errors, before the phase
// structure's own.
func (b *Builder) Event(ev trace.Event) error {
	if err := b.defs.CheckEvent(ev, b.lastNs); err != nil {
		return err
	}
	b.lastNs = ev.TimeNs
	switch ev.Kind {
	case trace.KindEnter:
		if b.current != nil {
			return fmt.Errorf("phaseprofile: nested Enter at %d ns (phases must not nest)", ev.TimeNs)
		}
		b.current = &Phase{
			App:     b.app,
			Region:  b.defs.Regions[ev.Region].Name,
			StartNs: ev.TimeNs,
		}
	case trace.KindLeave:
		if b.current == nil {
			return fmt.Errorf("phaseprofile: Leave without Enter at %d ns", ev.TimeNs)
		}
		return b.flush(ev.TimeNs)
	case trace.KindMetric:
		if b.current == nil {
			return nil // inter-phase samples are discarded
		}
		b.add(b.target(ev.Metric, ev.Location), ev.Value)
	}
	return nil
}

// A Target is where one metric's samples at one location fold: a
// power channel, a (value slot, location) cell, a phase annotation
// (threads, frequency), or nowhere, as the zero Target does. Resolve
// finds it once; AddStrided folds samples into it.
type Target struct {
	class metricClass
	i     int32 // power channel or cell index
}

// Resolve returns where samples of metric at location fold, after the
// definition checks Event applies to a metric event (with the same
// errors). It is how a recorder that holds its samples outside
// trace.Event folds them: resolve each (metric, location) pair of a
// run once, then AddStrided its samples. A pair's Target stays valid
// for the Builder's whole run.
func (b *Builder) Resolve(metric, location trace.Ref) (Target, error) {
	// Time 0 after 0 passes the order check; the rest is the
	// definition checks.
	if err := b.defs.CheckEvent(trace.Event{Kind: trace.KindMetric, Location: location, Metric: metric}, 0); err != nil {
		return Target{}, err
	}
	return b.target(metric, location), nil
}

// target resolves a defined (metric, location) pair. A value cell is
// created on the pair's first resolution.
func (b *Builder) target(metric, location trace.Ref) Target {
	class := b.classOf[metric]
	switch class {
	case mcPower:
		return Target{class: class, i: int32(b.slotOf[metric])}
	case mcVoltage, mcPMC:
		key := uint64(b.slotOf[metric])<<32 | uint64(location)
		ci := b.nextCell
		if ci == len(b.cells) || b.cells[ci].key != key {
			var ok bool
			if ci, ok = b.cellOf[key]; !ok {
				ci = len(b.cells)
				b.cellOf[key] = ci
				b.cells = append(b.cells, cell{key: key})
			}
		}
		b.nextCell = ci + 1
		return Target{class: class, i: int32(ci)}
	}
	return Target{class: class}
}

// add folds one sample into t in the current phase. Outside a phase it
// is discarded, as Event discards inter-phase samples. Samples of one
// Target must arrive in the order an archive would hold them; flush
// fixes the order across Targets.
func (b *Builder) add(t Target, value float64) {
	if b.current == nil {
		return
	}
	if a := b.aggOf(t); a != nil {
		a.sum += value
		a.weightS++
		return
	}
	b.annotate(t, value)
}

// AddStrided folds values[0], values[stride], values[2·stride], … into
// t, exactly as that many single-sample folds in that order would: the
// same sum, bit for bit, and for an annotation the last value. It is
// how a recorder folds one (metric, location) pair of a dense block of
// samples. stride must be positive.
func (b *Builder) AddStrided(t Target, values []float64, stride int) {
	if stride < 1 {
		panic("phaseprofile: AddStrided stride must be positive")
	}
	if b.current == nil || len(values) == 0 {
		return
	}
	a := b.aggOf(t)
	if a == nil {
		b.annotate(t, values[(len(values)-1)/stride*stride])
		return
	}
	sum, n := a.sum, 0
	for i := 0; i < len(values); i += stride {
		sum += values[i]
		n++
	}
	// weightS counts samples: adding n at once is as exact as n
	// increments.
	a.sum = sum
	a.weightS += float64(n)
}

// aggOf returns the aggregate a sample into t adds to, listing it as
// touched by the current phase if nothing has yet, or nil for an
// annotation or the zero Target.
func (b *Builder) aggOf(t Target) *agg {
	switch t.class {
	case mcPower:
		a := &b.powerA[t.i]
		if a.weightS == 0 {
			b.powered = append(b.powered, int(t.i))
		}
		return a
	case mcVoltage, mcPMC:
		c := &b.cells[t.i]
		if c.weightS == 0 {
			b.touched = append(b.touched, int(t.i))
		}
		return &c.agg
	}
	return nil
}

// annotate sets the current phase's annotation t to value; other
// Targets fold nowhere.
func (b *Builder) annotate(t Target, value float64) {
	switch t.class {
	case mcThreads:
		b.current.Threads = int(value)
	case mcFreq:
		b.current.FreqMHz = int(value)
	}
}

// flush closes the current phase at endNs.
func (b *Builder) flush(endNs uint64) error {
	current := b.current
	current.EndNs = endNs
	if current.EndNs <= current.StartNs {
		return fmt.Errorf("phaseprofile: empty phase %q", current.Region)
	}
	// Node power = sum of the per-socket channel means. A phase
	// that recorded power channels but caught no samples in its
	// window must not silently become a 0 W observation — the
	// regression would treat it as free power. Reject it instead.
	if len(b.powerA) > 0 && len(b.powered) == 0 {
		return fmt.Errorf("phaseprofile: phase %q [%d, %d] ns has no power samples", current.Region, current.StartNs, current.EndNs)
	}
	slices.Sort(b.powered) // channels are numbered in metric ref order
	var pw float64
	for _, ch := range b.powered {
		pw += b.powerA[ch].sum / b.powerA[ch].weightS
		b.powerA[ch] = agg{}
	}
	b.powered = b.powered[:0]
	current.PowerW = pw

	cells, touched := b.cells, b.touched
	slices.SortFunc(touched, func(x, y int) int { return cmp.Compare(cells[x].key, cells[y].key) })
	slotAt := func(i int) uint64 { return cells[touched[i]].key >> 32 }
	nRates := 0
	for i := range touched {
		if slotAt(i) > 0 && (i == 0 || slotAt(i-1) != slotAt(i)) {
			nRates++
		}
	}
	current.Rates = make(map[pmu.EventID]float64, nRates)
	for i := 0; i < len(touched); {
		slot := slotAt(i)
		var total float64
		n := 0
		for ; i < len(touched) && slotAt(i) == slot; i++ {
			c := &cells[touched[i]]
			total += c.sum / c.weightS
			c.agg = agg{}
			n++
		}
		if slot == 0 {
			current.VoltageV = total / float64(n)
		} else {
			current.Rates[b.slotEvent[slot]] = total
		}
	}
	b.touched = touched[:0]

	b.phases = append(b.phases, current)
	b.current = nil
	return nil
}

// Phases ends the run and returns its phase profiles in the order they
// closed.
func (b *Builder) Phases() ([]*Phase, error) {
	if b.current != nil {
		return nil, fmt.Errorf("phaseprofile: trace ended inside phase %q", b.current.Region)
	}
	return b.phases, nil
}

// CombineRuns merges phase profiles from multiple runs of the same
// experiment. Every run records the same phases in the same order, so
// phase i of each run is merged into phase i of the result: power and
// voltage become the mean across runs (each run measures them), and
// PMC rates are unioned — each run contributes the events its event
// set recorded. Conflicting PMC observations (the same event measured
// in several runs, e.g. fixed counters) are averaged too. The result
// keeps the recording order and the first run's times.
//
// Runs whose phases do not line up — a different count, or a
// different App, Region, Threads or FreqMHz at some position — are an
// error.
func CombineRuns(runs ...[]*Phase) ([]*Phase, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	for ri, run := range runs {
		if len(run) != len(runs[0]) {
			return nil, fmt.Errorf("phaseprofile: run %d has %d phases, run 0 has %d", ri, len(run), len(runs[0]))
		}
	}
	out := make([]*Phase, len(runs[0]))
	for i, first := range runs[0] {
		m := *first
		m.PowerW, m.VoltageV = 0, 0
		m.Rates = make(map[pmu.EventID]float64)
		rateN := make(map[pmu.EventID]float64)
		for ri, run := range runs {
			ph := run[i]
			if ph.App != m.App || ph.Region != m.Region || ph.Threads != m.Threads || ph.FreqMHz != m.FreqMHz {
				return nil, fmt.Errorf("phaseprofile: run %d phase %d is %s %q with %d threads at %d MHz, not %s %q with %d threads at %d MHz as in run 0",
					ri, i, ph.App, ph.Region, ph.Threads, ph.FreqMHz, m.App, m.Region, m.Threads, m.FreqMHz)
			}
			m.PowerW += ph.PowerW
			m.VoltageV += ph.VoltageV
			for id, r := range ph.Rates {
				m.Rates[id] += r
				rateN[id]++
			}
		}
		n := float64(len(runs))
		m.PowerW /= n
		m.VoltageV /= n
		for id, c := range rateN {
			m.Rates[id] /= c
		}
		out[i] = &m
	}
	return out, nil
}
