package cpusim

import (
	"fmt"

	"pmcpower/internal/pmu"
)

// Counters projects an Activity onto the PAPI preset event namespace:
// the read-out a PAPI event set would deliver after the run. Only the
// events present in set are populated — like real hardware, you get
// what you programmed the counters for.
//
// The mapping encodes how Haswell's preset events relate to the
// underlying machine activity (e.g. PAPI_L1_TCM = L1D + L1I misses,
// PAPI_BR_PRC = conditional branches − mispredictions). Several
// Activity fields (DRAM bytes, AVX datapath occupancy, bandwidth
// utilization) have no preset at all.
func Counters(a *Activity, set *pmu.EventSet) map[pmu.EventID]float64 {
	out := make(map[pmu.EventID]float64, set.Len())
	for _, id := range set.Events() {
		out[id] = counterValue(a, id)
	}
	return out
}

// AllCounters returns every preset's value for the activity; used by
// tests and by cmd/simulate.
func AllCounters(a *Activity) map[pmu.EventID]float64 {
	out := make(map[pmu.EventID]float64, pmu.NumEvents())
	for _, id := range pmu.AllIDs() {
		out[id] = counterValue(a, id)
	}
	return out
}

func counterValue(a *Activity, id pmu.EventID) float64 {
	switch pmu.Lookup(id).Short {
	case "L1_DCM":
		return a.L1DMiss()
	case "L1_ICM":
		return a.L1IMiss
	case "L2_DCM":
		return a.L2DMiss()
	case "L2_ICM":
		return a.L2IMiss
	case "L1_TCM":
		return a.L1DMiss() + a.L1IMiss
	case "L2_TCM":
		return a.L2DMiss() + a.L2IMiss
	case "L3_TCM":
		return a.L3Miss
	case "CA_SNP":
		return a.Snoops
	case "CA_SHR":
		// Snoops that hit shared lines; the rest split clean/dirty.
		return a.Snoops * 0.45
	case "CA_CLN":
		return a.Snoops * 0.35
	case "CA_ITV":
		return a.Snoops * 0.20
	case "TLB_DM":
		return a.TLBDMiss
	case "TLB_IM":
		return a.TLBIMiss
	case "L1_LDM":
		return a.L1DMissLoads
	case "L1_STM":
		return a.L1DMissStores
	case "L2_STM":
		return a.L2DMissWrite
	case "PRF_DM":
		return a.PrefetchMiss
	case "MEM_WCY":
		return a.MemWriteCycles
	case "STL_ICY":
		return a.StallIssueCycles
	case "FUL_ICY":
		return a.FullIssueCycles
	case "STL_CCY":
		return a.StallCompleteCycles
	case "FUL_CCY":
		return a.FullCompleteCycles
	case "BR_UCN":
		return a.UncondBranches
	case "BR_CN":
		return a.CondBranches
	case "BR_TKN":
		return a.TakenCond
	case "BR_NTK":
		return a.CondBranches - a.TakenCond
	case "BR_MSP":
		return a.MispCond
	case "BR_PRC":
		return a.CondBranches - a.MispCond
	case "TOT_INS":
		return a.Instructions
	case "LD_INS":
		return a.Loads
	case "SR_INS":
		return a.Stores
	case "BR_INS":
		return a.Branches()
	case "RES_STL":
		return a.ResStallCycles
	case "TOT_CYC":
		return a.Cycles
	case "LST_INS":
		return a.Loads + a.Stores
	case "L2_DCA":
		return a.L1DMiss() + a.Prefetches
	case "L3_DCA":
		return a.L2DMiss() + a.PrefetchMiss
	case "L2_DCR":
		return a.L1DMissLoads + a.Prefetches
	case "L3_DCR":
		return a.L2DMissRead + a.PrefetchMiss
	case "L2_DCW":
		return a.L1DMissStores
	case "L3_DCW":
		return a.L2DMissWrite
	case "L2_ICA":
		return a.L1IMiss
	case "L3_ICA":
		return a.L2IMiss
	case "L2_ICR":
		return a.L1IMiss
	case "L3_ICR":
		return a.L2IMiss
	case "L2_TCA":
		return a.L1DMiss() + a.L1IMiss + a.Prefetches
	case "L3_TCA":
		return a.L2DMiss() + a.L2IMiss + a.PrefetchMiss
	case "L2_TCR":
		return a.L1DMissLoads + a.L1IMiss + a.Prefetches
	case "L3_TCW":
		return a.L2DMissWrite
	case "SP_OPS":
		return a.SPOps
	case "DP_OPS":
		return a.DPOps
	case "VEC_SP":
		return a.VecSPIns
	case "VEC_DP":
		return a.VecDPIns
	case "REF_CYC":
		return a.RefCycles
	default:
		panic(fmt.Sprintf("cpusim: no mapping for event %s", pmu.Lookup(id).Name))
	}
}
