package core

import (
	"fmt"
	"sort"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/pmu"
)

// This file implements power attribution — the paper's motivating
// capability gap: physical sensors cannot "observe components with a
// common voltage source (e.g. multiple cores)", so "power estimation
// models can complement measurements in terms of general availability,
// component resolution and temporal granularity". A trained model's
// linear structure decomposes naturally: per Equation-1 term for one
// node estimate, and per core when per-core counter rates are
// available (the apapi sampler and the trace format carry them).

// TermShare is one component of an attributed power estimate.
type TermShare struct {
	// Term names the component: "const", "static (V)", "base dynamic
	// (V²f)", or a counter short name.
	Term string
	// Watts is the component's contribution (can be negative: some
	// coefficients are negative, e.g. clock-gating savings).
	Watts float64
}

// Attribution decomposes one prediction.
type Attribution struct {
	TotalW float64
	Terms  []TermShare
}

// Attribute decomposes the model's estimate for a row into its
// Equation-1 terms. The term watts sum exactly to Predict(row).
func (m *Model) Attribute(r *acquisition.Row) Attribution {
	v2f := V2F(r)
	out := Attribution{}
	out.Terms = append(out.Terms,
		TermShare{Term: "const", Watts: m.Delta},
		TermShare{Term: "static (V)", Watts: m.Gamma * r.VoltageV},
		TermShare{Term: "base dynamic (V²f)", Watts: m.Beta * v2f},
	)
	for i, id := range m.Events {
		out.Terms = append(out.Terms, TermShare{
			Term:  pmu.Lookup(id).Short,
			Watts: m.Alpha[i] * r.RatePerCycle(id) * v2f,
		})
	}
	for _, t := range out.Terms {
		out.TotalW += t.Watts
	}
	return out
}

// CorePower is one core's attributed power.
type CorePower struct {
	Core  int
	Watts float64
}

// AttributePerCore distributes a node power estimate over cores from
// per-core counter rates (events/second per core, as the per-core
// apapi streams deliver them). The activity-proportional terms
// (α_n·E_n·V²f) follow each core's own counter rates; the shared terms
// (δ, γ·V, β·V²f) are split evenly across the active cores — they
// model voltage-domain-wide power that physical instruments cannot
// split either.
//
// The per-core estimates sum to the node estimate of a row whose rates
// are the column sums of coreRates. Each core's rates must pass
// Estimate at the shared operating point; the first core, in core
// order, that fails is named in the error.
func (m *Model) AttributePerCore(coreRates map[int]map[pmu.EventID]float64, voltageV float64, freqMHz int) ([]CorePower, error) {
	if len(coreRates) == 0 {
		return nil, fmt.Errorf("core: no per-core rates")
	}
	cores := make([]int, 0, len(coreRates))
	for c := range coreRates {
		cores = append(cores, c)
	}
	sort.Ints(cores)

	row := acquisition.Row{FreqMHz: freqMHz, VoltageV: voltageV}
	v2f := V2F(&row)
	shared := (m.Delta + m.Gamma*voltageV + m.Beta*v2f) / float64(len(coreRates))
	out := make([]CorePower, 0, len(cores))
	for _, c := range cores {
		row.Rates = coreRates[c]
		if _, err := m.Estimate(CounterSample{FreqMHz: freqMHz, VoltageV: voltageV, Rates: row.Rates}); err != nil {
			return nil, fmt.Errorf("%w (core %d)", err, c)
		}
		w := shared
		for i, id := range m.Events {
			w += m.Alpha[i] * row.RatePerCycle(id) * v2f
		}
		out = append(out, CorePower{Core: c, Watts: w})
	}
	return out, nil
}
