package experiments

import (
	"math"
	"sort"

	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
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
	ds := c.selectionDS
	power := make([]float64, len(ds.Rows))
	for i, r := range ds.Rows {
		power[i] = r.PowerW
	}
	out := make(map[pmu.EventID]float64, pmu.NumEvents())
	for _, id := range pmu.AllIDs() {
		rates := make([]float64, len(ds.Rows))
		for i, r := range ds.Rows {
			rates[i] = r.RatePerCycle(id)
		}
		out[id] = stats.Pearson(rates, power)
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
