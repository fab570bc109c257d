package pmu

import (
	"fmt"
	"sort"
)

// Hardware counter resources of the simulated platform. A Haswell core
// with Hyper-Threading disabled (as in the paper's setup) exposes 8
// general-purpose programmable counters plus 3 fixed-function counters
// (core cycles, reference cycles, retired instructions).
const (
	// ProgrammableSlots is the number of general-purpose counter
	// registers available per core.
	ProgrammableSlots = 8
	// FixedSlots is the number of fixed-function counters.
	FixedSlots = 3
)

// EventSet is a collection of preset events intended to be measured in
// a single run, mirroring PAPI's event set abstraction.
type EventSet struct {
	ids []EventID
}

// NewEventSet creates an event set from the given events, rejecting
// unknown IDs and duplicates. The set is not necessarily schedulable —
// check Schedulable before using it in a run plan.
func NewEventSet(ids ...EventID) (*EventSet, error) {
	seen := make(map[EventID]bool, len(ids))
	for _, id := range ids {
		e, ok := LookupOK(id)
		if !ok {
			return nil, fmt.Errorf("pmu: unknown event id %d in event set", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("pmu: duplicate event %s in event set", e.Name)
		}
		seen[id] = true
	}
	s := &EventSet{ids: append([]EventID(nil), ids...)}
	sort.Slice(s.ids, func(i, j int) bool { return s.ids[i] < s.ids[j] })
	return s, nil
}

// Events returns the event IDs in the set, sorted.
func (s *EventSet) Events() []EventID {
	return append([]EventID(nil), s.ids...)
}

// Len returns the number of events in the set.
func (s *EventSet) Len() int { return len(s.ids) }

// SlotsUsed returns the number of programmable and fixed counter slots
// the set needs.
func (s *EventSet) SlotsUsed() (programmable, fixed int) {
	for _, id := range s.ids {
		e := Lookup(id)
		if e.Kind == Fixed {
			fixed++
		} else {
			programmable += e.NativeSlots
		}
	}
	return programmable, fixed
}

// Schedulable reports whether the set fits into the hardware counters
// of one core for a single run. The programmable cost is the number of
// *distinct native events* the presets need (presets sharing a native
// register share its slot); SlotsUsed gives the conservative
// per-preset sum.
func (s *EventSet) Schedulable() bool {
	_, f := s.SlotsUsed()
	return len(NativeUnion(s.ids)) <= ProgrammableSlots && f <= FixedSlots
}

// String lists the short names of the set's events.
func (s *EventSet) String() string {
	names := ShortNames(s.ids)
	return fmt.Sprintf("EventSet%v", names)
}

// PlanRuns partitions the requested events into a minimal-ish sequence
// of schedulable event sets using first-fit-decreasing bin packing on
// programmable slot cost. Fixed-counter events are free and are
// included in *every* run: on real hardware the fixed counters run
// regardless, and measuring cycles alongside each run lets
// post-processing normalize the multiplexed counts.
//
// PlanRuns returns an error for unknown or duplicate events.
func PlanRuns(ids []EventID) ([]*EventSet, error) {
	var fixed, prog []EventID
	seen := make(map[EventID]bool, len(ids))
	for _, id := range ids {
		e, ok := LookupOK(id)
		if !ok {
			return nil, fmt.Errorf("pmu: unknown event id %d in plan request", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("pmu: duplicate event %s in plan request", e.Name)
		}
		seen[id] = true
		if e.Kind == Fixed {
			fixed = append(fixed, id)
		} else {
			prog = append(prog, id)
		}
	}
	if len(fixed) > FixedSlots {
		return nil, fmt.Errorf("pmu: %d fixed events requested, platform has %d fixed counters", len(fixed), FixedSlots)
	}

	// First-fit decreasing over slot cost; ties broken by event ID for
	// determinism.
	sort.Slice(prog, func(i, j int) bool {
		ci, cj := Lookup(prog[i]).NativeSlots, Lookup(prog[j]).NativeSlots
		if ci != cj {
			return ci > cj
		}
		return prog[i] < prog[j]
	})

	type bin struct {
		used int
		ids  []EventID
	}
	var bins []*bin
	for _, id := range prog {
		cost := Lookup(id).NativeSlots
		placed := false
		for _, b := range bins {
			if b.used+cost <= ProgrammableSlots {
				b.ids = append(b.ids, id)
				b.used += cost
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, &bin{used: cost, ids: []EventID{id}})
		}
	}

	if len(bins) == 0 && len(fixed) > 0 {
		bins = append(bins, &bin{})
	}
	out := make([]*EventSet, 0, len(bins))
	for _, b := range bins {
		set, err := NewEventSet(append(append([]EventID(nil), b.ids...), fixed...)...)
		if err != nil {
			return nil, err
		}
		if !set.Schedulable() {
			return nil, fmt.Errorf("pmu: internal error: planned unschedulable set %v", set)
		}
		out = append(out, set)
	}
	return out, nil
}
