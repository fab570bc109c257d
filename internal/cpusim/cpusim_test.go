package cpusim

import (
	"math"
	"testing"
	"testing/quick"

	"pmcpower/internal/pmu"
	"pmcpower/internal/rng"
	"pmcpower/internal/workloads"
)

func testExec() *Executor { return NewExecutor(HaswellEP()) }

func run(t *testing.T, name string, freq, threads int, seed uint64) *Activity {
	t.Helper()
	a, err := testExec().Execute(RunConfig{
		Workload:  workloads.MustByName(name),
		FreqMHz:   freq,
		Threads:   threads,
		DurationS: 1,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPlatformDefinition(t *testing.T) {
	p := HaswellEP()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TotalCores() != 24 {
		t.Fatalf("TotalCores = %d, want 24", p.TotalCores())
	}
	freqs := p.Frequencies()
	if len(freqs) != 5 || freqs[0] != 1200 || freqs[4] != 2600 {
		t.Fatalf("frequencies = %v, want 5 between 1200 and 2600", freqs)
	}
	// Voltage must rise with frequency.
	var lastV float64
	for _, f := range freqs {
		ps, err := p.PStateFor(f)
		if err != nil {
			t.Fatal(err)
		}
		if ps.VoltageV <= lastV {
			t.Fatalf("voltage not increasing at %d MHz", f)
		}
		lastV = ps.VoltageV
	}
	if _, err := p.PStateFor(1337); err == nil {
		t.Fatal("unknown frequency must error")
	}
}

func TestPlatformValidateCatchesBadDefs(t *testing.T) {
	bad := HaswellEP()
	bad.PStates[0].VoltageV = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("implausible voltage must fail validation")
	}
	bad2 := HaswellEP()
	bad2.PStates = []PState{{FreqMHz: 2000, VoltageV: 0.9}, {FreqMHz: 1200, VoltageV: 0.74}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("non-ascending P-states must fail validation")
	}
	bad3 := HaswellEP()
	bad3.Sockets = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero sockets must fail validation")
	}
}

func TestExecuteArgumentValidation(t *testing.T) {
	ex := testExec()
	wl := workloads.MustByName("compute")
	cases := []RunConfig{
		{Workload: nil, FreqMHz: 2400, Threads: 1, DurationS: 1},
		{Workload: wl, PhaseIdx: 5, FreqMHz: 2400, Threads: 1, DurationS: 1},
		{Workload: wl, FreqMHz: 2400, Threads: 0, DurationS: 1},
		{Workload: wl, FreqMHz: 2400, Threads: 25, DurationS: 1},
		{Workload: wl, FreqMHz: 2400, Threads: 1, DurationS: 0},
		{Workload: wl, FreqMHz: 1337, Threads: 1, DurationS: 1},
	}
	for i, cfg := range cases {
		if _, err := ex.Execute(cfg, rng.New(1)); err == nil {
			t.Fatalf("case %d must be rejected", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, "md", 2400, 24, 7)
	b := run(t, "md", 2400, 24, 7)
	if a.Instructions != b.Instructions || a.Cycles != b.Cycles || a.L3Miss != b.L3Miss {
		t.Fatal("identical seeds must give identical activity")
	}
	c := run(t, "md", 2400, 24, 8)
	if a.Instructions == c.Instructions {
		t.Fatal("different seeds must differ (run-to-run variation)")
	}
	// But only slightly: run-to-run variation is sub-percent.
	if math.Abs(a.Instructions-c.Instructions)/a.Instructions > 0.05 {
		t.Fatal("run-to-run variation implausibly large")
	}
}

func TestCyclesMatchFrequencyAndDuration(t *testing.T) {
	// One core, one second, full duty — plus housekeeping cycles from
	// the 23 idle cores (~5 %).
	a := run(t, "compute", 2400, 1, 1)
	want := 2.4e9
	if a.Cycles < want*0.99 || a.Cycles > want*1.08 {
		t.Fatalf("cycles = %g, want ~%g (+ housekeeping)", a.Cycles, want)
	}
	b := run(t, "compute", 1200, 1, 1)
	if b.Cycles < 1.2e9*0.99 || b.Cycles > 1.2e9*1.08 {
		t.Fatalf("cycles at 1200 MHz = %g", b.Cycles)
	}
	// Frequency ratio must carry through exactly (same relative
	// housekeeping share).
	if ratio := a.Cycles / b.Cycles; math.Abs(ratio-2) > 0.02 {
		t.Fatalf("2400/1200 cycle ratio = %v, want ~2", ratio)
	}
}

func TestRefCyclesAtNominalRate(t *testing.T) {
	a := run(t, "compute", 1200, 4, 2)
	// REF_CYC ticks at the 2600 MHz nominal rate while unhalted.
	ratio := a.RefCycles / a.Cycles
	want := 2600.0 / 1200.0
	if math.Abs(ratio-want) > 1e-9 {
		t.Fatalf("REF/TSC ratio = %v, want %v", ratio, want)
	}
}

func TestThreadScaling(t *testing.T) {
	a1 := run(t, "compute", 2400, 1, 3)
	a24 := run(t, "compute", 2400, 24, 3)
	// A perfectly parallel kernel: 24 threads retire ~24× the
	// instructions.
	ratio := a24.Instructions / a1.Instructions
	if ratio < 20 || ratio > 25 {
		t.Fatalf("24-thread scaling ratio = %.1f, want ~24", ratio)
	}
	if a24.ActiveCores != [2]int{12, 12} {
		t.Fatalf("active cores = %v, want compact 12+12", a24.ActiveCores)
	}
	a8 := run(t, "compute", 2400, 8, 3)
	if a8.ActiveCores != [2]int{8, 0} {
		t.Fatalf("active cores at 8 threads = %v, want socket-0 only", a8.ActiveCores)
	}
}

func TestMemoryBoundFrequencyScaling(t *testing.T) {
	// Compute-bound: instructions scale ~linearly with f.
	c12 := run(t, "compute", 1200, 24, 4)
	c26 := run(t, "compute", 2600, 24, 4)
	cRatio := c26.Instructions / c12.Instructions
	if cRatio < 2.0 || cRatio > 2.3 {
		t.Fatalf("compute frequency scaling = %.2f, want ~2600/1200", cRatio)
	}
	// Bandwidth-bound: instruction rate saturates, so the ratio is
	// much smaller.
	m12 := run(t, "memory_read", 1200, 24, 4)
	m26 := run(t, "memory_read", 2600, 24, 4)
	mRatio := m26.Instructions / m12.Instructions
	if mRatio > 1.3 {
		t.Fatalf("memory_read frequency scaling = %.2f, want saturated (~1)", mRatio)
	}
	if m12.MemBWUtil < 0.5 || m26.MemBWUtil < 0.5 {
		t.Fatal("memory_read at 24 threads must be near bandwidth saturation")
	}
}

func TestBandwidthCap(t *testing.T) {
	p := HaswellEP()
	a := run(t, "memory_read", 2600, 12, 5)
	// A single socket cannot exceed its peak bandwidth.
	if bw := a.MemBandwidthGBs(); bw > p.PeakBWGBs*1.05 {
		t.Fatalf("socket bandwidth %.1f GB/s exceeds peak %.1f", bw, p.PeakBWGBs)
	}
}

func TestVoltageDroop(t *testing.T) {
	p := HaswellEP()
	ps, _ := p.PStateFor(2400)
	idle := run(t, "idle", 2400, 24, 6)
	busy := run(t, "addpd", 2400, 24, 6)
	if busy.CoreVoltageV >= idle.CoreVoltageV {
		t.Fatalf("loaded voltage (%.4f) must droop below idle (%.4f)", busy.CoreVoltageV, idle.CoreVoltageV)
	}
	if idle.CoreVoltageV > ps.VoltageV*1.01 || busy.CoreVoltageV < ps.VoltageV*0.95 {
		t.Fatal("voltages must stay near the P-state setpoint")
	}
}

func TestIdleDutyCycle(t *testing.T) {
	a := run(t, "idle", 2400, 24, 7)
	// Deep C-states: unhalted cycles are a tiny fraction of wall time.
	frac := a.Cycles / (2.4e9 * 24)
	if frac > 0.05 {
		t.Fatalf("idle unhalted fraction = %.3f, want < 0.05", frac)
	}
}

func TestCounterIdentities(t *testing.T) {
	a := run(t, "md", 2400, 24, 8)
	c := AllCounters(a)
	get := func(name string) float64 { return c[pmu.MustByName(name).ID] }

	// Derived-preset identities must hold exactly.
	if got, want := get("L1_TCM"), get("L1_DCM")+get("L1_ICM"); math.Abs(got-want) > 1 {
		t.Fatalf("L1_TCM != L1_DCM+L1_ICM: %g vs %g", got, want)
	}
	if got, want := get("L2_TCM"), get("L2_DCM")+get("L2_ICM"); math.Abs(got-want) > 1 {
		t.Fatalf("L2_TCM mismatch: %g vs %g", got, want)
	}
	if got, want := get("BR_PRC"), get("BR_CN")-get("BR_MSP"); math.Abs(got-want) > 1 {
		t.Fatalf("BR_PRC mismatch: %g vs %g", got, want)
	}
	if got, want := get("BR_NTK"), get("BR_CN")-get("BR_TKN"); math.Abs(got-want) > 1 {
		t.Fatalf("BR_NTK mismatch: %g vs %g", got, want)
	}
	if got, want := get("LST_INS"), get("LD_INS")+get("SR_INS"); math.Abs(got-want) > 1 {
		t.Fatalf("LST_INS mismatch: %g vs %g", got, want)
	}
	if got, want := get("BR_INS"), get("BR_CN")+get("BR_UCN"); math.Abs(got-want) > 1 {
		t.Fatalf("BR_INS mismatch: %g vs %g", got, want)
	}
	if got, want := get("L1_DCM"), get("L1_LDM")+get("L1_STM"); math.Abs(got-want) > 1 {
		t.Fatalf("L1_DCM mismatch: %g vs %g", got, want)
	}
	// CA_* snoop subtypes partition CA_SNP.
	if got, want := get("CA_SNP"), get("CA_SHR")+get("CA_CLN")+get("CA_ITV"); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("snoop subtypes don't partition CA_SNP: %g vs %g", got, want)
	}
}

func TestCounterHierarchies(t *testing.T) {
	// Cache-level inclusion: misses shrink down the hierarchy; all
	// counters are non-negative.
	for _, name := range []string{"compute", "md", "memory_read", "fma3d", "idle"} {
		a := run(t, name, 2400, 24, 9)
		c := AllCounters(a)
		for id, v := range c {
			if v < 0 {
				t.Fatalf("%s: counter %s negative: %g", name, pmu.Lookup(id).Short, v)
			}
		}
		get := func(n string) float64 { return c[pmu.MustByName(n).ID] }
		if get("L2_DCM") > get("L1_DCM")*1.001 {
			t.Fatalf("%s: L2 data misses exceed L1 data misses", name)
		}
		if get("BR_MSP") > get("BR_CN") {
			t.Fatalf("%s: more mispredicts than conditional branches", name)
		}
		if get("TOT_CYC") < get("FUL_CCY") {
			t.Fatalf("%s: full-retire cycles exceed total cycles", name)
		}
		if get("STL_ICY") > get("TOT_CYC") {
			t.Fatalf("%s: stall cycles exceed total cycles", name)
		}
	}
}

func TestCountersSubsetOnly(t *testing.T) {
	a := run(t, "compute", 2400, 4, 10)
	set, err := pmu.NewEventSet(pmu.MustByName("TOT_CYC").ID, pmu.MustByName("BR_MSP").ID)
	if err != nil {
		t.Fatal(err)
	}
	c := Counters(a, set)
	if len(c) != 2 {
		t.Fatalf("Counters returned %d entries, want 2", len(c))
	}
	if _, ok := c[pmu.MustByName("L1_DCM").ID]; ok {
		t.Fatal("Counters must not include unprogrammed events")
	}
}

func TestExecutePhases(t *testing.T) {
	wl := workloads.MustByName("md") // two phases, weights 0.7/0.3
	acts, err := testExec().ExecutePhases(wl, 2400, 24, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 2 {
		t.Fatalf("got %d phase activities, want 2", len(acts))
	}
	if math.Abs(acts[0].DurationS-7) > 1e-9 || math.Abs(acts[1].DurationS-3) > 1e-9 {
		t.Fatalf("phase durations %v/%v, want 7/3", acts[0].DurationS, acts[1].DurationS)
	}
}

func TestActivityHelpers(t *testing.T) {
	a := run(t, "swim", 2400, 24, 11)
	if a.IPC() <= 0 || a.IPC() > 4 {
		t.Fatalf("IPC = %v out of range", a.IPC())
	}
	if a.L1DMiss() != a.L1DMissLoads+a.L1DMissStores {
		t.Fatal("L1DMiss helper wrong")
	}
	if a.Branches() != a.CondBranches+a.UncondBranches {
		t.Fatal("Branches helper wrong")
	}
	if a.MemBandwidthGBs() <= 0 {
		t.Fatal("swim must have DRAM traffic")
	}
	var zero Activity
	if zero.IPC() != 0 || zero.MemBandwidthGBs() != 0 {
		t.Fatal("zero activity helpers must not divide by zero")
	}
}

func TestInvariantsProperty(t *testing.T) {
	// For any workload/frequency/threads/seed, core physical
	// invariants hold.
	names := []string{"compute", "sqrt", "memory_read", "md", "ilbdc", "idle", "matmul"}
	freqs := HaswellEP().Frequencies()
	f := func(seed uint64, wlIdx, fIdx, thr uint8) bool {
		name := names[int(wlIdx)%len(names)]
		freq := freqs[int(fIdx)%len(freqs)]
		threads := int(thr)%24 + 1
		a, err := testExec().Execute(RunConfig{
			Workload:  workloads.MustByName(name),
			FreqMHz:   freq,
			Threads:   threads,
			DurationS: 0.5,
		}, rng.New(seed))
		if err != nil {
			return false
		}
		if a.Instructions <= 0 || a.Cycles <= 0 {
			return false
		}
		if a.IPC() > 4.2 {
			return false
		}
		if a.MemBWUtil < 0 || a.MemBWUtil > 1 {
			return false
		}
		if a.CoreVoltageV < 0.6 || a.CoreVoltageV > 1.2 {
			return false
		}
		if a.StallIssueCycles > a.Cycles || a.FullCompleteCycles > a.Cycles {
			return false
		}
		if a.MispCond > a.CondBranches || a.TakenCond > a.CondBranches {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
