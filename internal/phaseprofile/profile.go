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
	"sort"
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

// Key identifies a phase across runs of the same experiment.
func (p *Phase) Key() string {
	return fmt.Sprintf("%s|%s|%d|%d", p.App, p.Region, p.Threads, p.FreqMHz)
}

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

// FromTrace extracts phase profiles from an archive. The recorder
// writes Enter/Leave around every phase on the master location and
// annotates each phase with active_threads and core_frequency sync
// metrics; power, voltage and PAPI rates arrive as async samples.
//
// Aggregation state is reused across phases: once a (metric,
// location) pair has been seen, its samples allocate nothing. Beyond
// the definition section, work and memory grow with the samples an
// archive carries, never with the number of locations or metrics it
// declares.
func FromTrace(r io.Reader, app string) ([]*Phase, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	defs := tr.Definitions()

	// Metric classification by definition name. slotOf numbers each
	// power metric's channel and each voltage or PMC metric's value
	// slot: slot 0 is voltage, and every distinct PMC event gets one
	// slot after it, whatever the number of metrics naming it.
	type metricClass int
	const (
		mcPower metricClass = iota
		mcVoltage
		mcThreads
		mcFreq
		mcPMC
		mcOther
	)
	classOf := make([]metricClass, len(defs.Metrics))
	slotOf := make([]int, len(defs.Metrics))
	eventSlot := make([]int, pmu.NumEvents()) // 0 = no slot yet
	slotEvent := []pmu.EventID{-1}            // slot 0: voltage
	nPower := 0
	for i, m := range defs.Metrics {
		switch {
		case IsPowerMetric(m.Name):
			classOf[i] = mcPower
			slotOf[i] = nPower
			nPower++
			continue
		}
		switch m.Name {
		case MetricVoltage:
			classOf[i] = mcVoltage
		case MetricThreads:
			classOf[i] = mcThreads
		case MetricFreq:
			classOf[i] = mcFreq
		default:
			if ev, err := pmu.ByName(m.Name); err == nil {
				classOf[i] = mcPMC
				if eventSlot[ev.ID] == 0 {
					eventSlot[ev.ID] = len(slotEvent)
					slotEvent = append(slotEvent, ev.ID)
				}
				slotOf[i] = eventSlot[ev.ID]
			} else {
				classOf[i] = mcOther
			}
		}
	}

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
	// Per-core instruments (voltage, PMCs) are aggregated per trace
	// location first: a core's samples average to that core's mean,
	// then cores combine — voltages by averaging (the node-level
	// reading), counter rates by summing (per-core counters add up to
	// the node total).
	//
	// A (slot, location) pair gets a cell on its first sample. Each
	// phase lists the power channels and cells it touched; flush folds
	// just those in ascending ref order — float addition is not
	// associative, and reproducibility is non-negotiable — and zeroes
	// them for the next phase.
	//
	// The recorder writes every tick's samples in the same order, so
	// cells are created in that order and the cell after the last one
	// used is checked before the map.
	var (
		phases   []*Phase
		current  *Phase
		powerA   = make([]agg, nPower) // one aggregate per power channel
		powered  []int                 // channels sampled this phase
		cellOf   = make(map[uint64]int)
		cells    []cell
		nextCell int
		touched  []int // cells sampled this phase
	)
	flush := func(endNs uint64) error {
		if current == nil {
			return nil
		}
		current.EndNs = endNs
		if current.EndNs <= current.StartNs {
			return fmt.Errorf("phaseprofile: empty phase %q", current.Region)
		}
		// Node power = sum of the per-socket channel means. A phase
		// that recorded power channels but caught no samples in its
		// window must not silently become a 0 W observation — the
		// regression would treat it as free power. Reject it instead.
		if nPower > 0 && len(powered) == 0 {
			return fmt.Errorf("phaseprofile: phase %q [%d, %d] ns has no power samples", current.Region, current.StartNs, current.EndNs)
		}
		slices.Sort(powered) // channels are numbered in metric ref order
		var pw float64
		for _, ch := range powered {
			pw += powerA[ch].sum / powerA[ch].weightS
			powerA[ch] = agg{}
		}
		powered = powered[:0]
		current.PowerW = pw

		slices.SortFunc(touched, func(a, b int) int { return cmp.Compare(cells[a].key, cells[b].key) })
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
				current.Rates[slotEvent[slot]] = total
			}
		}
		touched = touched[:0]

		phases = append(phases, current)
		current = nil
		return nil
	}

	for {
		ev, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case trace.KindEnter:
			if current != nil {
				return nil, fmt.Errorf("phaseprofile: nested Enter at %d ns (phases must not nest)", ev.TimeNs)
			}
			current = &Phase{
				App:     app,
				Region:  defs.Regions[ev.Region].Name,
				StartNs: ev.TimeNs,
			}
		case trace.KindLeave:
			if current == nil {
				return nil, fmt.Errorf("phaseprofile: Leave without Enter at %d ns", ev.TimeNs)
			}
			if err := flush(ev.TimeNs); err != nil {
				return nil, err
			}
		case trace.KindMetric:
			if current == nil {
				continue // inter-phase samples are discarded
			}
			var a *agg
			switch classOf[ev.Metric] {
			case mcPower:
				ch := slotOf[ev.Metric]
				if powerA[ch].weightS == 0 {
					powered = append(powered, ch)
				}
				a = &powerA[ch]
			case mcVoltage, mcPMC:
				key := uint64(slotOf[ev.Metric])<<32 | uint64(ev.Location)
				ci := nextCell
				if ci == len(cells) || cells[ci].key != key {
					var ok bool
					if ci, ok = cellOf[key]; !ok {
						ci = len(cells)
						cellOf[key] = ci
						cells = append(cells, cell{key: key})
					}
				}
				nextCell = ci + 1
				if cells[ci].weightS == 0 {
					touched = append(touched, ci)
				}
				a = &cells[ci].agg
			case mcThreads:
				current.Threads = int(ev.Value)
			case mcFreq:
				current.FreqMHz = int(ev.Value)
			}
			if a != nil {
				a.sum += ev.Value
				a.weightS++
			}
		}
	}
	if current != nil {
		return nil, fmt.Errorf("phaseprofile: trace ended inside phase %q", current.Region)
	}
	return phases, nil
}

// CombineRuns merges phase profiles from multiple runs of the same
// experiment matrix. Profiles with the same Key are averaged: power
// and voltage become the mean across runs (each run measures them),
// and PMC rates are unioned — each run contributes the events its
// event set recorded. Conflicting PMC observations (the same event
// measured in several runs, e.g. fixed counters) are averaged too.
//
// The result is sorted by key for determinism.
func CombineRuns(runs ...[]*Phase) []*Phase {
	type acc struct {
		proto    *Phase
		powerSum float64
		voltSum  float64
		n        float64
		rateSum  map[pmu.EventID]float64
		rateN    map[pmu.EventID]float64
	}
	byKey := make(map[string]*acc)
	var order []string
	for _, run := range runs {
		for _, ph := range run {
			k := ph.Key()
			a := byKey[k]
			if a == nil {
				cp := *ph
				cp.Rates = nil
				a = &acc{
					proto:   &cp,
					rateSum: make(map[pmu.EventID]float64),
					rateN:   make(map[pmu.EventID]float64),
				}
				byKey[k] = a
				order = append(order, k)
			}
			a.powerSum += ph.PowerW
			a.voltSum += ph.VoltageV
			a.n++
			for id, r := range ph.Rates {
				a.rateSum[id] += r
				a.rateN[id]++
			}
		}
	}
	sort.Strings(order)
	out := make([]*Phase, 0, len(order))
	for _, k := range order {
		a := byKey[k]
		m := a.proto
		m.PowerW = a.powerSum / a.n
		m.VoltageV = a.voltSum / a.n
		m.Rates = make(map[pmu.EventID]float64, len(a.rateSum))
		for id, s := range a.rateSum {
			m.Rates[id] = s / a.rateN[id]
		}
		out = append(out, m)
	}
	return out
}
