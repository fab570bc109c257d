package core

import (
	"pmcpower/internal/acquisition"
	"pmcpower/internal/mat"
	"pmcpower/internal/pmu"
)

// DatasetCache is a per-dataset column store for the Equation-1
// features. The hot loops — greedy selection (54 candidate fits per
// round), VIF auxiliary regressions, cross-validation folds — all
// derive their design matrices from the same row set; rebuilding those
// matrices from rows pays the Rates map lookup and the V²f arithmetic
// once per fit instead of once per dataset. The cache computes each
// feature column exactly once, with the same per-element arithmetic as
// DesignMatrix/RateMatrix, so designs assembled from cached columns
// are value-identical to freshly built ones.
//
// Concurrency: Warm the cache for every event the hot loop will touch
// before fanning out; the per-column getters fill lazily and are NOT
// safe for concurrent first use. After warming, reads are safe from
// any number of goroutines.
type DatasetCache struct {
	rows []*acquisition.Row
	n    int

	ones  []float64 // intercept column (all 1s)
	v2f   []float64 // V²f per row
	volt  []float64 // V per row
	power []float64 // target: measured watts

	rate map[pmu.EventID][]float64 // E_n (events per cycle)
	ev   map[pmu.EventID][]float64 // E_n·V²f (Equation-1 feature)
}

// NewDatasetCache builds the row-independent columns eagerly and
// leaves per-event columns to Warm/getters.
func NewDatasetCache(rows []*acquisition.Row) *DatasetCache {
	n := len(rows)
	c := &DatasetCache{
		rows:  rows,
		n:     n,
		ones:  make([]float64, n),
		v2f:   make([]float64, n),
		volt:  make([]float64, n),
		power: make([]float64, n),
		rate:  make(map[pmu.EventID][]float64),
		ev:    make(map[pmu.EventID][]float64),
	}
	for i, r := range rows {
		c.ones[i] = 1
		c.v2f[i] = V2F(r)
		c.volt[i] = r.VoltageV
		c.power[i] = r.PowerW
	}
	return c
}

// Len returns the number of rows backing the cache.
func (c *DatasetCache) Len() int { return c.n }

// Ones returns the intercept column. Callers must not modify returned
// columns; they are shared.
func (c *DatasetCache) Ones() []float64 { return c.ones }

// V2FCol returns the V²f column.
func (c *DatasetCache) V2FCol() []float64 { return c.v2f }

// VoltCol returns the voltage column.
func (c *DatasetCache) VoltCol() []float64 { return c.volt }

// Power returns the regression target (measured watts).
func (c *DatasetCache) Power() []float64 { return c.power }

// Warm precomputes the rate and E·V²f columns for the given events, so
// subsequent concurrent reads never mutate the cache.
func (c *DatasetCache) Warm(events []pmu.EventID) {
	for _, id := range events {
		c.EVCol(id)
	}
}

// RateCol returns the E_n column (events per cycle) for the event,
// computing and caching it on first use.
func (c *DatasetCache) RateCol(id pmu.EventID) []float64 {
	if col, ok := c.rate[id]; ok {
		return col
	}
	col := make([]float64, c.n)
	for i, r := range c.rows {
		col[i] = r.RatePerCycle(id)
	}
	c.rate[id] = col
	return col
}

// EVCol returns the Equation-1 feature column E_n·V²f for the event,
// computing and caching it (and the rate column) on first use.
func (c *DatasetCache) EVCol(id pmu.EventID) []float64 {
	if col, ok := c.ev[id]; ok {
		return col
	}
	rate := c.RateCol(id)
	col := make([]float64, c.n)
	for i := range col {
		col[i] = rate[i] * c.v2f[i]
	}
	c.ev[id] = col
	return col
}

// RateColumns returns the rate columns for the events, in order — the
// column-store view of RateMatrix for VIF.
func (c *DatasetCache) RateColumns(events []pmu.EventID) [][]float64 {
	cols := make([][]float64, len(events))
	for j, id := range events {
		cols[j] = c.RateCol(id)
	}
	return cols
}

// DesignSubset assembles the Equation-1 design matrix and target for a
// subset of the cached rows (idx into the row set), in DesignMatrix's
// layout: [E_0·V²f, …, E_{k−1}·V²f, V²f, V]. The values are exactly
// those DesignMatrix computes over the same rows, so fitting it is
// bit-identical to fitting a fresh DesignMatrix. Cross-validation folds
// use it to gather per-fold designs without re-deriving features per
// fit.
func (c *DatasetCache) DesignSubset(events []pmu.EventID, idx []int) (*mat.Matrix, []float64) {
	k := len(events)
	x := mat.New(len(idx), k+2)
	y := make([]float64, len(idx))
	evCols := make([][]float64, k)
	for j, id := range events {
		evCols[j] = c.EVCol(id)
	}
	for out, i := range idx {
		row := x.RowView(out)
		for j := 0; j < k; j++ {
			row[j] = evCols[j][i]
		}
		row[k] = c.v2f[i]
		row[k+1] = c.volt[i]
		y[out] = c.power[i]
	}
	return x, y
}
