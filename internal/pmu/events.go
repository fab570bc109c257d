// Package pmu models the performance monitoring unit of the simulated
// Haswell-EP system at the level the paper's workflow interacts with
// it: the standardized PAPI preset event namespace, event sets, the
// hardware constraints on how many events can be counted at once, and
// a multiplexing planner that turns a list of requested events into a
// sequence of schedulable runs.
//
// The paper uses the 54 standardized PAPI counters available on its
// Intel Xeon E5-2690v3 platform ("Note that there are even more native
// counters (162)...  We focus on the standardized PAPI counters to keep
// the amount of measurements needed feasible"). This package defines
// exactly those 54 presets. Because a Haswell core exposes only a
// handful of programmable counter registers (plus three fixed ones),
// recording all presets for one workload requires multiple runs —
// the "hardware limitation on simultaneous recording of multiple PAPI
// counters" that forces the paper's multi-run acquisition and
// post-processing merge.
package pmu

import (
	"fmt"
	"sort"
	"strings"
)

// EventID identifies a PAPI preset event. IDs are dense indices into
// the preset table, stable across runs.
type EventID int

// CounterKind describes which hardware counter class an event needs.
type CounterKind int

const (
	// Programmable events occupy general-purpose counter registers.
	Programmable CounterKind = iota
	// Fixed events are served by dedicated fixed-function counters
	// (cycles, reference cycles, retired instructions on Intel) and do
	// not consume programmable slots.
	Fixed
)

// Event describes one PAPI preset event.
type Event struct {
	ID   EventID
	Name string // full PAPI name, e.g. "PAPI_PRF_DM"
	// Short is the name without the PAPI_ prefix, as used in the
	// paper's tables (e.g. "PRF_DM").
	Short string
	Desc  string
	Kind  CounterKind
	// NativeSlots is the number of native programmable counters the
	// preset consumes: 1 for direct events, 2 for derived presets
	// computed from two native events (e.g. PAPI_BR_PRC = branches −
	// mispredictions). Fixed events consume 0.
	NativeSlots int
}

// String returns the full PAPI name.
func (e Event) String() string { return e.Name }

// The preset table. Order defines EventIDs; do not reorder entries —
// experiment reproducibility depends on stable IDs.
var presets = []Event{
	{Name: "PAPI_L1_DCM", Desc: "Level 1 data cache misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L1_ICM", Desc: "Level 1 instruction cache misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L2_DCM", Desc: "Level 2 data cache misses", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_L2_ICM", Desc: "Level 2 instruction cache misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L1_TCM", Desc: "Level 1 cache misses", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_L2_TCM", Desc: "Level 2 cache misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L3_TCM", Desc: "Level 3 cache misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_CA_SNP", Desc: "Requests for a snoop", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_CA_SHR", Desc: "Requests for exclusive access to shared cache line", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_CA_CLN", Desc: "Requests for exclusive access to clean cache line", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_CA_ITV", Desc: "Requests for cache line intervention", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_TLB_DM", Desc: "Data translation lookaside buffer misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_TLB_IM", Desc: "Instruction translation lookaside buffer misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L1_LDM", Desc: "Level 1 load misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L1_STM", Desc: "Level 1 store misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L2_STM", Desc: "Level 2 store misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_PRF_DM", Desc: "Data prefetch cache misses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_MEM_WCY", Desc: "Cycles waiting for memory writes", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_STL_ICY", Desc: "Cycles with no instruction issue", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_FUL_ICY", Desc: "Cycles with maximum instruction issue", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_STL_CCY", Desc: "Cycles with no instructions completed", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_FUL_CCY", Desc: "Cycles with maximum instructions completed", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_BR_UCN", Desc: "Unconditional branch instructions", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_BR_CN", Desc: "Conditional branch instructions", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_BR_TKN", Desc: "Conditional branch instructions taken", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_BR_NTK", Desc: "Conditional branch instructions not taken", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_BR_MSP", Desc: "Conditional branch instructions mispredicted", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_BR_PRC", Desc: "Conditional branch instructions correctly predicted", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_TOT_INS", Desc: "Instructions completed", Kind: Fixed, NativeSlots: 0},
	{Name: "PAPI_LD_INS", Desc: "Load instructions", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_SR_INS", Desc: "Store instructions", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_BR_INS", Desc: "Branch instructions", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_RES_STL", Desc: "Cycles stalled on any resource", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_TOT_CYC", Desc: "Total cycles", Kind: Fixed, NativeSlots: 0},
	{Name: "PAPI_LST_INS", Desc: "Load/store instructions completed", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_L2_DCA", Desc: "Level 2 data cache accesses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L3_DCA", Desc: "Level 3 data cache accesses", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_L2_DCR", Desc: "Level 2 data cache reads", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L3_DCR", Desc: "Level 3 data cache reads", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L2_DCW", Desc: "Level 2 data cache writes", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L3_DCW", Desc: "Level 3 data cache writes", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L2_ICA", Desc: "Level 2 instruction cache accesses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L3_ICA", Desc: "Level 3 instruction cache accesses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L2_ICR", Desc: "Level 2 instruction cache reads", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L3_ICR", Desc: "Level 3 instruction cache reads", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L2_TCA", Desc: "Level 2 total cache accesses", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_L3_TCA", Desc: "Level 3 total cache accesses", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_L2_TCR", Desc: "Level 2 total cache reads", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_L3_TCW", Desc: "Level 3 total cache writes", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_SP_OPS", Desc: "Single precision floating point operations", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_DP_OPS", Desc: "Double precision floating point operations", Kind: Programmable, NativeSlots: 2},
	{Name: "PAPI_VEC_SP", Desc: "Single precision vector/SIMD instructions", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_VEC_DP", Desc: "Double precision vector/SIMD instructions", Kind: Programmable, NativeSlots: 1},
	{Name: "PAPI_REF_CYC", Desc: "Reference clock cycles", Kind: Fixed, NativeSlots: 0},
}

// byName maps every full and every short preset name to its event; a
// full name wins over a short one.
var byName map[string]EventID

func init() {
	byName = make(map[string]EventID, 2*len(presets))
	for i := range presets {
		presets[i].ID = EventID(i)
		presets[i].Short = strings.TrimPrefix(presets[i].Name, "PAPI_")
		if _, dup := byName[presets[i].Name]; dup {
			panic("pmu: duplicate preset name " + presets[i].Name)
		}
		byName[presets[i].Name] = EventID(i)
	}
	for i := range presets {
		if _, full := byName[presets[i].Short]; !full {
			byName[presets[i].Short] = EventID(i)
		}
	}
}

// NumEvents is the number of available preset events on the platform.
func NumEvents() int { return len(presets) }

// All returns all preset events in ID order.
func All() []Event {
	out := make([]Event, len(presets))
	copy(out, presets)
	return out
}

// AllIDs returns every preset EventID in order.
func AllIDs() []EventID {
	out := make([]EventID, len(presets))
	for i := range presets {
		out[i] = EventID(i)
	}
	return out
}

// Lookup returns the event with the given ID. It panics on an invalid
// ID — IDs only originate from this package, so an out-of-range value
// is a programming error, not bad input. Code handling IDs that arrive
// from outside (decoded files, network payloads, CLI input) should use
// LookupOK instead.
func Lookup(id EventID) Event {
	if id < 0 || int(id) >= len(presets) {
		panic(fmt.Sprintf("pmu: invalid event id %d", id))
	}
	return presets[id]
}

// LookupOK returns the event with the given ID, reporting rather than
// panicking when the ID is out of range. Entry points that accept IDs
// from untrusted sources validate through this so malformed input
// surfaces as an error message instead of a stack trace.
func LookupOK(id EventID) (Event, bool) {
	if id < 0 || int(id) >= len(presets) {
		return Event{}, false
	}
	return presets[id], true
}

// ByName resolves a full PAPI name ("PAPI_PRF_DM") or a short name
// ("PRF_DM") to an event.
func ByName(name string) (Event, error) {
	if id, ok := byName[name]; ok {
		return presets[id], nil
	}
	return Event{}, fmt.Errorf("pmu: unknown event %q", name)
}

// IDByName resolves a name given as bytes, as ByName does. It converts
// no string and allocates nothing, for parsers that read event names
// off the wire.
func IDByName(name []byte) (EventID, bool) {
	id, ok := byName[string(name)]
	return id, ok
}

// MustByName is ByName that panics on unknown names; for use with
// compile-time-constant names in experiments and tests.
func MustByName(name string) Event {
	e, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return e
}

// ShortNames formats a list of event IDs as their short names.
func ShortNames(ids []EventID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = Lookup(id).Short
	}
	return out
}

// SortIDs returns a sorted copy of ids.
func SortIDs(ids []EventID) []EventID {
	out := append([]EventID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
