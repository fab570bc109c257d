package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

// Model persistence: a trained Equation-1 model serializes to a small
// JSON document, so a model calibrated once (the expensive part: a
// full acquisition campaign) can be deployed wherever estimates are
// needed — the "general availability" half of the paper's motivation.
//
// Events are stored by PAPI name, not numeric ID, so documents stay
// valid across versions of the preset table.

// modelJSON is the serialized form.
type modelJSON struct {
	// Version guards the format.
	Version int `json:"version"`
	// Events are PAPI event names aligned with Alpha.
	Events []string  `json:"events"`
	Alpha  []float64 `json:"alpha"`
	Beta   float64   `json:"beta"`
	Gamma  float64   `json:"gamma"`
	Delta  float64   `json:"delta"`
	// Diagnostics travel along for provenance (not used by Predict).
	R2        float64   `json:"r2"`
	AdjR2     float64   `json:"adj_r2"`
	StdErr    []float64 `json:"std_err,omitempty"`
	Estimator string    `json:"estimator,omitempty"`
	N         int       `json:"n,omitempty"`
}

const modelFormatVersion = 1

// WriteJSON serializes the model.
func (m *Model) WriteJSON(w io.Writer) error {
	doc := modelJSON{
		Version: modelFormatVersion,
		Events:  make([]string, len(m.Events)),
		Alpha:   append([]float64(nil), m.Alpha...),
		Beta:    m.Beta,
		Gamma:   m.Gamma,
		Delta:   m.Delta,
	}
	for i, id := range m.Events {
		doc.Events[i] = pmu.Lookup(id).Name
	}
	if m.Fit != nil {
		doc.R2 = m.Fit.R2
		doc.AdjR2 = m.Fit.AdjR2
		doc.StdErr = append([]float64(nil), m.Fit.StdErr...)
		doc.Estimator = m.Fit.Estimator.String()
		doc.N = m.Fit.N
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("core: serializing model: %w", err)
	}
	return nil
}

// ReadJSON deserializes a model written by WriteJSON. The returned
// model predicts; its Fit carries only the stored diagnostics (R²,
// Adj.R², standard errors), not residuals or leverages. A document
// that names an event twice is rejected: its design would carry two
// identical columns, and a streaming refit over it never adapts.
func ReadJSON(r io.Reader) (*Model, error) {
	var doc modelJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: parsing model document: %w", err)
	}
	if doc.Version != modelFormatVersion {
		return nil, fmt.Errorf("core: unsupported model format version %d (want %d)", doc.Version, modelFormatVersion)
	}
	if len(doc.Events) == 0 {
		return nil, fmt.Errorf("core: model document has no events")
	}
	if len(doc.Alpha) != len(doc.Events) {
		return nil, fmt.Errorf("core: %d alpha coefficients for %d events", len(doc.Alpha), len(doc.Events))
	}
	for _, v := range append(append([]float64(nil), doc.Alpha...), doc.Beta, doc.Gamma, doc.Delta) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: model document contains non-finite coefficients")
		}
	}
	est, err := stats.ParseCovEstimator(doc.Estimator)
	if err != nil {
		return nil, fmt.Errorf("core: model document: %w", err)
	}
	m := &Model{
		Alpha: append([]float64(nil), doc.Alpha...),
		Beta:  doc.Beta,
		Gamma: doc.Gamma,
		Delta: doc.Delta,
		Fit: &stats.OLSResult{
			R2:        doc.R2,
			AdjR2:     doc.AdjR2,
			StdErr:    append([]float64(nil), doc.StdErr...),
			Estimator: est,
			N:         doc.N,
		},
	}
	for _, name := range doc.Events {
		ev, err := pmu.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("core: model references unknown event %q", name)
		}
		if slices.Contains(m.Events, ev.ID) {
			return nil, fmt.Errorf("core: model lists event %q twice", name)
		}
		m.Events = append(m.Events, ev.ID)
	}
	return m, nil
}
