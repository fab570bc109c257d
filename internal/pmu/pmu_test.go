package pmu

import (
	"strings"
	"testing"
)

func TestPresetCount(t *testing.T) {
	// The paper: "we use 54 PAPI counters that are available on the
	// system".
	if NumEvents() != 54 {
		t.Fatalf("platform exposes %d presets, want 54", NumEvents())
	}
}

func TestPaperCountersExist(t *testing.T) {
	// Every counter named in the paper's Tables I, III, IV and §IV-A
	// must exist.
	for _, name := range []string{
		"PRF_DM", "TOT_CYC", "TLB_IM", "FUL_CCY", "STL_ICY", "BR_MSP",
		"CA_SNP", "L1_LDM", "REF_CYC", "BR_PRC", "L3_TCM",
	} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("paper counter %s missing: %v", name, err)
		}
	}
}

func TestLookupRoundTrip(t *testing.T) {
	for _, e := range All() {
		got := Lookup(e.ID)
		if got.Name != e.Name {
			t.Fatalf("Lookup(%d) = %s, want %s", e.ID, got.Name, e.Name)
		}
		byFull, err := ByName(e.Name)
		if err != nil || byFull.ID != e.ID {
			t.Fatalf("ByName(%s) failed: %v", e.Name, err)
		}
		byShort, err := ByName(e.Short)
		if err != nil || byShort.ID != e.ID {
			t.Fatalf("ByName(%s) failed: %v", e.Short, err)
		}
	}
}

// TestIDByName: the byte-keyed lookup resolves what ByName resolves,
// full and short names, and allocates nothing doing it.
func TestIDByName(t *testing.T) {
	for _, e := range All() {
		for _, name := range []string{e.Name, e.Short} {
			if id, ok := IDByName([]byte(name)); !ok || id != e.ID {
				t.Fatalf("IDByName(%s) = %v, %v; want %v", name, id, ok, e.ID)
			}
		}
	}
	for _, name := range []string{"", "PAPI_", "tot_cyc", "PAPI_PAPI_TOT_CYC"} {
		if id, ok := IDByName([]byte(name)); ok {
			t.Fatalf("IDByName(%q) = %v, want unknown", name, id)
		}
	}
	name := []byte("TOT_CYC")
	if n := testing.AllocsPerRun(100, func() { IDByName(name) }); n != 0 {
		t.Fatalf("IDByName allocates %v times", n)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("PAPI_NOPE"); err == nil {
		t.Fatal("unknown event must error")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName on unknown event must panic")
		}
	}()
	MustByName("BOGUS")
}

func TestShortNamesHavePrefixStripped(t *testing.T) {
	for _, e := range All() {
		if strings.HasPrefix(e.Short, "PAPI_") {
			t.Fatalf("short name %s retains prefix", e.Short)
		}
		if e.Name != "PAPI_"+e.Short {
			t.Fatalf("name/short mismatch: %s / %s", e.Name, e.Short)
		}
	}
}

func TestFixedEvents(t *testing.T) {
	// Exactly the three Intel fixed-function counters.
	var fixed []string
	for _, e := range All() {
		if e.Kind == Fixed {
			fixed = append(fixed, e.Short)
			if e.NativeSlots != 0 {
				t.Fatalf("fixed event %s has NativeSlots=%d", e.Short, e.NativeSlots)
			}
		} else if e.NativeSlots < 1 || e.NativeSlots > 2 {
			t.Fatalf("programmable event %s has NativeSlots=%d", e.Short, e.NativeSlots)
		}
	}
	want := map[string]bool{"TOT_CYC": true, "TOT_INS": true, "REF_CYC": true}
	if len(fixed) != len(want) {
		t.Fatalf("fixed events = %v", fixed)
	}
	for _, s := range fixed {
		if !want[s] {
			t.Fatalf("unexpected fixed event %s", s)
		}
	}
}

func TestEventSetBasics(t *testing.T) {
	a := MustByName("PRF_DM").ID
	b := MustByName("TOT_CYC").ID
	s, err := NewEventSet(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(a) || !s.Contains(b) {
		t.Fatal("Contains failed")
	}
	if s.Contains(MustByName("BR_MSP").ID) {
		t.Fatal("Contains reported absent event")
	}
	// Events() must be sorted and a copy.
	ev := s.Events()
	if ev[0] > ev[1] {
		t.Fatal("Events not sorted")
	}
	ev[0] = 9999
	if s.Events()[0] == 9999 {
		t.Fatal("Events must return a copy")
	}
}

func TestEventSetRejectsDuplicates(t *testing.T) {
	id := MustByName("BR_MSP").ID
	if _, err := NewEventSet(id, id); err == nil {
		t.Fatal("duplicate events must be rejected")
	}
}

func TestSlotsAndSchedulable(t *testing.T) {
	cyc := MustByName("TOT_CYC").ID // fixed
	ins := MustByName("TOT_INS").ID // fixed
	prf := MustByName("PRF_DM").ID  // 1 slot
	ful := MustByName("FUL_CCY").ID // 2 slots (derived)
	s := MustEventSet(cyc, ins, prf, ful)
	p, f := s.SlotsUsed()
	if p != 3 || f != 2 {
		t.Fatalf("SlotsUsed = %d,%d want 3,2", p, f)
	}
	if !s.Schedulable() {
		t.Fatal("small set must be schedulable")
	}
}

func TestUnschedulableSet(t *testing.T) {
	// Nine 1-slot programmable events overflow the 8 slots.
	var ids []EventID
	for _, e := range All() {
		if e.Kind == Programmable && e.NativeSlots == 1 {
			ids = append(ids, e.ID)
			if len(ids) == ProgrammableSlots+1 {
				break
			}
		}
	}
	if MustEventSet(ids...).Schedulable() {
		t.Fatal("overflowing set reported schedulable")
	}
}

func TestPlanRunsCoversAllEvents(t *testing.T) {
	plan, err := PlanRuns(AllIDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 2 {
		t.Fatalf("full preset list must need multiple runs, got %d", len(plan))
	}
	covered := map[EventID]int{}
	for _, set := range plan {
		if !set.Schedulable() {
			t.Fatalf("planned set not schedulable: %v", set)
		}
		for _, id := range set.Events() {
			covered[id]++
		}
	}
	for _, e := range All() {
		c := covered[e.ID]
		switch e.Kind {
		case Fixed:
			// Fixed events ride along in every run.
			if c != len(plan) {
				t.Fatalf("fixed event %s covered %d times, want %d", e.Short, c, len(plan))
			}
		case Programmable:
			if c != 1 {
				t.Fatalf("event %s covered %d times, want 1", e.Short, c)
			}
		}
	}
}

func TestPlanRunsReasonablyPacked(t *testing.T) {
	plan, err := PlanRuns(AllIDs())
	if err != nil {
		t.Fatal(err)
	}
	// Total programmable slot demand of the 54 presets.
	var demand int
	for _, e := range All() {
		demand += e.NativeSlots
	}
	lower := (demand + ProgrammableSlots - 1) / ProgrammableSlots
	if len(plan) > lower+2 {
		t.Fatalf("plan uses %d runs; lower bound is %d — packing too loose", len(plan), lower)
	}
}

func TestPlanRunsDeterministic(t *testing.T) {
	p1, err := PlanRuns(AllIDs())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanRuns(AllIDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatal("plan not deterministic in length")
	}
	for i := range p1 {
		a, b := p1[i].Events(), p2[i].Events()
		if len(a) != len(b) {
			t.Fatalf("run %d differs", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("run %d event %d differs", i, j)
			}
		}
	}
}

func TestPlanRunsErrors(t *testing.T) {
	id := MustByName("PRF_DM").ID
	if _, err := PlanRuns([]EventID{id, id}); err == nil {
		t.Fatal("duplicate request must error")
	}
}

func TestPlanRunsFixedOnly(t *testing.T) {
	plan, err := PlanRuns([]EventID{MustByName("TOT_CYC").ID, MustByName("REF_CYC").ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0].Len() != 2 {
		t.Fatalf("fixed-only plan = %v", plan)
	}
}

func TestSortIDs(t *testing.T) {
	ids := []EventID{5, 1, 3}
	sorted := SortIDs(ids)
	if sorted[0] != 1 || sorted[1] != 3 || sorted[2] != 5 {
		t.Fatalf("SortIDs = %v", sorted)
	}
	if ids[0] != 5 {
		t.Fatal("SortIDs must not mutate input")
	}
}

func TestLookupOK(t *testing.T) {
	e, ok := LookupOK(0)
	if !ok || e.ID != 0 {
		t.Fatalf("LookupOK(0) = %+v, %v", e, ok)
	}
	for _, bad := range []EventID{-1, EventID(len(AllIDs())), 9999} {
		if _, ok := LookupOK(bad); ok {
			t.Fatalf("LookupOK(%d) accepted an out-of-range id", bad)
		}
	}
}

func TestInvalidIDsErrorNotPanic(t *testing.T) {
	// Entry points that accept IDs from outside the package must turn
	// an out-of-range ID into an error, never a panic: a corrupt model
	// file or malformed request used to take the daemon down with a
	// stack trace here.
	bad := EventID(9999)
	if _, err := NewEventSet(bad); err == nil || !strings.Contains(err.Error(), "unknown event id") {
		t.Fatalf("NewEventSet(bad): err = %v", err)
	}
	if _, err := NewEventSet(0, bad); err == nil {
		t.Fatal("NewEventSet with one bad id must error")
	}
	if _, err := PlanRuns([]EventID{bad}); err == nil || !strings.Contains(err.Error(), "unknown event id") {
		t.Fatalf("PlanRuns(bad): err = %v", err)
	}
}
