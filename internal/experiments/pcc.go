package experiments

import (
	"math"
	"sort"

	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
)

// PCCRow is one row of Table III / one bar of Figure 6: a counter's
// Pearson correlation coefficient with measured power (the paper's
// Equation 2).
type PCCRow struct {
	Counter string
	PCC     float64
}

// pccAll computes the PCC of every counter's E_n rate with power over
// the selection dataset.
func (c *Context) pccAll() map[pmu.EventID]float64 {
	ids := pmu.AllIDs()
	out := make(map[pmu.EventID]float64, len(ids))
	for j, pcc := range core.PowerPCC(c.selectionDS.Rows, ids) {
		out[ids[j]] = pcc
	}
	return out
}

// TableIII reproduces Table III: the PCC of each *selected* counter
// with power, in selection order. The paper's headline observation —
// statistically chosen counters are mostly NOT the ones most
// correlated with power — should be visible here.
func (c *Context) TableIII() []PCCRow {
	pcc := c.pccAll()
	out := make([]PCCRow, len(c.selected))
	for i, id := range c.selected {
		out[i] = PCCRow{Counter: pmu.Lookup(id).Short, PCC: pcc[id]}
	}
	return out
}

// Fig6 reproduces Figure 6: the PCC of all supported PAPI counters
// with power, sorted descending (NaNs — zero-variance counters — last).
func (c *Context) Fig6() []PCCRow {
	pcc := c.pccAll()
	out := make([]PCCRow, 0, len(pcc))
	for _, id := range pmu.AllIDs() {
		out = append(out, PCCRow{Counter: pmu.Lookup(id).Short, PCC: pcc[id]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].PCC, out[j].PCC
		switch {
		case math.IsNaN(a):
			return false
		case math.IsNaN(b):
			return true
		default:
			return a > b
		}
	})
	return out
}
