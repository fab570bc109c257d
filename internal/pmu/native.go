package pmu

import (
	"fmt"
	"sort"
)

// Native event layer. PAPI presets are an abstraction: each preset is
// programmed from one or two *native* events of the processor ("Note
// that there are even more native counters (162)" — the paper sticks
// to presets, and so do the experiments here, but the native layer
// underneath determines what can be counted simultaneously).
//
// Two presets that share a native event can be measured in the same
// run at the cost of one counter register — e.g. PAPI_BR_PRC
// (correctly predicted conditionals) is derived from the same
// BR_INST_RETIRED.CONDITIONAL register that PAPI_BR_CN uses, plus the
// misprediction counter PAPI_BR_MSP needs anyway. EventSet.Schedulable
// charges a set its native union; the multiplex planner, PlanRuns,
// conservatively charges every preset its full native cost.

// presetNatives maps each programmable preset (by short name) to the
// native events it is derived from. Fixed-counter presets have no
// programmable natives. The table mirrors how PAPI actually composes
// these presets on Haswell-EP; len(presetNatives[short]) must equal
// the preset's NativeSlots (enforced by init).
var presetNatives = map[string][]string{
	"L1_DCM":  {"L1D.REPLACEMENT"},
	"L1_ICM":  {"ICACHE.MISSES"},
	"L2_DCM":  {"L2_RQSTS.DEMAND_DATA_RD_MISS", "L2_RQSTS.RFO_MISS"},
	"L2_ICM":  {"L2_RQSTS.CODE_RD_MISS"},
	"L1_TCM":  {"L1D.REPLACEMENT", "ICACHE.MISSES"},
	"L2_TCM":  {"L2_RQSTS.MISS"},
	"L3_TCM":  {"LONGEST_LAT_CACHE.MISS"},
	"CA_SNP":  {"OFFCORE_RESPONSE.ALL_SNOOP"},
	"CA_SHR":  {"OFFCORE_RESPONSE.SNOOP_HIT_SHARED"},
	"CA_CLN":  {"OFFCORE_RESPONSE.SNOOP_HIT_CLEAN"},
	"CA_ITV":  {"OFFCORE_RESPONSE.SNOOP_HITM"},
	"TLB_DM":  {"DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK"},
	"TLB_IM":  {"ITLB_MISSES.MISS_CAUSES_A_WALK"},
	"L1_LDM":  {"MEM_LOAD_UOPS_RETIRED.L1_MISS"},
	"L1_STM":  {"MEM_UOPS_RETIRED.STLB_MISS_STORES"},
	"L2_STM":  {"L2_RQSTS.RFO_MISS"},
	"PRF_DM":  {"LOAD_HIT_PRE.HW_PF"},
	"MEM_WCY": {"CYCLE_ACTIVITY.CYCLES_MEM_WRITE"},
	"STL_ICY": {"IDQ_UOPS_NOT_DELIVERED.CYCLES_0_UOPS_DELIV"},
	"FUL_ICY": {"IDQ_UOPS_NOT_DELIVERED.CYCLES_0_UOPS_DELIV", "UOPS_ISSUED.CORE_CYCLES_GE_4"},
	"STL_CCY": {"CYCLE_ACTIVITY.CYCLES_NO_EXECUTE"},
	"FUL_CCY": {"CYCLE_ACTIVITY.CYCLES_NO_EXECUTE", "UOPS_RETIRED.CORE_CYCLES_GE_4"},
	"BR_UCN":  {"BR_INST_RETIRED.ALL_BRANCHES", "BR_INST_RETIRED.CONDITIONAL"},
	"BR_CN":   {"BR_INST_RETIRED.CONDITIONAL"},
	"BR_TKN":  {"BR_INST_RETIRED.CONDITIONAL", "BR_INST_RETIRED.NOT_TAKEN"},
	"BR_NTK":  {"BR_INST_RETIRED.NOT_TAKEN"},
	"BR_MSP":  {"BR_MISP_RETIRED.CONDITIONAL"},
	"BR_PRC":  {"BR_INST_RETIRED.CONDITIONAL", "BR_MISP_RETIRED.CONDITIONAL"},
	"LD_INS":  {"MEM_UOPS_RETIRED.ALL_LOADS"},
	"SR_INS":  {"MEM_UOPS_RETIRED.ALL_STORES"},
	"BR_INS":  {"BR_INST_RETIRED.ALL_BRANCHES"},
	"RES_STL": {"RESOURCE_STALLS.ANY"},
	"LST_INS": {"MEM_UOPS_RETIRED.ALL_LOADS", "MEM_UOPS_RETIRED.ALL_STORES"},
	"L2_DCA":  {"L2_RQSTS.ALL_DEMAND_DATA_RD_RFO"},
	"L3_DCA":  {"OFFCORE_REQUESTS.DEMAND_DATA_RD", "OFFCORE_REQUESTS.DEMAND_RFO"},
	"L2_DCR":  {"L2_RQSTS.ALL_DEMAND_DATA_RD"},
	"L3_DCR":  {"OFFCORE_REQUESTS.DEMAND_DATA_RD"},
	"L2_DCW":  {"L2_RQSTS.ALL_RFO"},
	"L3_DCW":  {"OFFCORE_REQUESTS.DEMAND_RFO"},
	"L2_ICA":  {"L2_RQSTS.ALL_CODE_RD"},
	"L3_ICA":  {"OFFCORE_REQUESTS.DEMAND_CODE_RD"},
	"L2_ICR":  {"L2_RQSTS.CODE_RD_HIT_MISS"},
	"L3_ICR":  {"OFFCORE_REQUESTS.CODE_RD"},
	"L2_TCA":  {"L2_RQSTS.ALL_DEMAND_DATA_RD_RFO", "L2_RQSTS.ALL_CODE_RD"},
	"L3_TCA":  {"LONGEST_LAT_CACHE.REFERENCE"},
	"L2_TCR":  {"L2_RQSTS.ALL_DEMAND_DATA_RD", "L2_RQSTS.CODE_RD_HIT_MISS"},
	"L3_TCW":  {"OFFCORE_REQUESTS.WRITEBACK"},
	"SP_OPS":  {"FP_ARITH_INST_RETIRED.SCALAR_SINGLE", "FP_ARITH_INST_RETIRED.PACKED_SINGLE"},
	"DP_OPS":  {"FP_ARITH_INST_RETIRED.SCALAR_DOUBLE", "FP_ARITH_INST_RETIRED.PACKED_DOUBLE"},
	"VEC_SP":  {"FP_ARITH_INST_RETIRED.PACKED_SINGLE"},
	"VEC_DP":  {"FP_ARITH_INST_RETIRED.PACKED_DOUBLE"},
}

func init() {
	for _, e := range presets {
		natives := presetNatives[e.Short]
		switch e.Kind {
		case Fixed:
			if len(natives) != 0 {
				panic(fmt.Sprintf("pmu: fixed preset %s must have no programmable natives", e.Short))
			}
		case Programmable:
			if len(natives) != e.NativeSlots {
				panic(fmt.Sprintf("pmu: preset %s declares %d native slots but maps to %d native events",
					e.Short, e.NativeSlots, len(natives)))
			}
		}
	}
}

// NativeUnion returns the distinct native event names a set of presets
// needs — the true programmable-counter cost when presets share
// registers.
func NativeUnion(ids []EventID) []string {
	seen := map[string]bool{}
	var out []string
	for _, id := range ids {
		for _, n := range presetNatives[Lookup(id).Short] {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}
