package quality

import (
	"math"
	"sort"
	"time"

	"pmcpower/internal/pmu"
)

// Observation is one prequential estimate-then-observe pair with the
// full sample context, as the serving layer sees it. Rates is
// borrowed: the buffer copies it only when the observation is
// admitted as an exemplar, so passing the estimator's reused map is
// safe and allocation-free on the non-admitting path.
type Observation struct {
	TimeNs       uint64
	Session      string
	ModelVersion uint64
	// TraceID is the request trace carrying this sample ("" for an
	// untraced caller). It rides through exemplar records and drift
	// transitions so a quality event resolves to a concrete request.
	TraceID    string
	FreqMHz    int
	VoltageV   float64
	Rates      map[pmu.EventID]float64
	PredictedW float64
	ObservedW  float64
}

// rateEntry is one captured counter rate, stored sorted by event id
// so records render deterministically.
type rateEntry struct {
	id   pmu.EventID
	rate float64
}

// exemplarEntry is one captured worst-residual sample. The rates
// slice is owned by the entry and reused across replacements, so
// steady-state traffic that never displaces an exemplar costs no
// allocations and a displacement usually costs none either.
type exemplarEntry struct {
	obs      Observation // Rates nil; captured into rates below
	captured time.Time
	absResid float64
	rates    []rateEntry
}

// Exemplars is a bounded keep-the-worst buffer: the capacity samples
// with the largest absolute residual seen so far, maintained as a
// min-heap on |residual| so the cheapest question — "does this sample
// even qualify?" — is one comparison against the root.
//
// Exemplars is not goroutine-safe; Monitor drives it under its lock.
type Exemplars struct {
	capacity int
	heap     []exemplarEntry // min-heap by absResid
}

// NewExemplars returns a buffer keeping the given number of worst
// samples (clamped to at least 1).
func NewExemplars(capacity int) *Exemplars {
	if capacity < 1 {
		capacity = 1
	}
	return &Exemplars{capacity: capacity, heap: make([]exemplarEntry, 0, capacity)}
}

// Len returns the number of captured exemplars.
func (e *Exemplars) Len() int { return len(e.heap) }

// Consider offers one observation; it is captured iff the buffer has
// room or the residual beats the current smallest captured residual.
// now is the capture wall-clock timestamp.
func (e *Exemplars) Consider(o Observation, now time.Time) bool {
	absResid := math.Abs(o.PredictedW - o.ObservedW)
	if math.IsNaN(absResid) || math.IsInf(absResid, 0) {
		return false
	}
	if len(e.heap) < e.capacity {
		e.heap = append(e.heap, exemplarEntry{})
		e.fill(&e.heap[len(e.heap)-1], o, now, absResid)
		e.siftUp(len(e.heap) - 1)
		return true
	}
	if absResid <= e.heap[0].absResid {
		return false
	}
	e.fill(&e.heap[0], o, now, absResid)
	e.siftDown(0)
	return true
}

// fill overwrites an entry in place, reusing its rates slice.
func (e *Exemplars) fill(en *exemplarEntry, o Observation, now time.Time, absResid float64) {
	rates := en.rates[:0]
	for id, v := range o.Rates {
		rates = append(rates, rateEntry{id: id, rate: v})
	}
	// Insertion sort: the slice is a handful of model events, and
	// sort.Slice would allocate on a path that should not.
	for i := 1; i < len(rates); i++ {
		for j := i; j > 0 && rates[j-1].id > rates[j].id; j-- {
			rates[j-1], rates[j] = rates[j], rates[j-1]
		}
	}
	o.Rates = nil
	*en = exemplarEntry{obs: o, captured: now, absResid: absResid, rates: rates}
}

func (e *Exemplars) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if e.heap[parent].absResid <= e.heap[i].absResid {
			return
		}
		e.heap[parent], e.heap[i] = e.heap[i], e.heap[parent]
		i = parent
	}
}

func (e *Exemplars) siftDown(i int) {
	n := len(e.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && e.heap[l].absResid < e.heap[least].absResid {
			least = l
		}
		if r := 2*i + 2; r < n && e.heap[r].absResid < e.heap[least].absResid {
			least = r
		}
		if least == i {
			return
		}
		e.heap[i], e.heap[least] = e.heap[least], e.heap[i]
		i = least
	}
}

// ExemplarRecord is the exported (JSON) form of one captured sample,
// as /debug/exemplars serves it.
type ExemplarRecord struct {
	TimeNs         uint64             `json:"time_ns"`
	CapturedUnixNs int64              `json:"captured_unix_ns"`
	Session        string             `json:"session,omitempty"`
	TraceID        string             `json:"trace_id,omitempty"`
	ModelVersion   uint64             `json:"model_version"`
	FreqMHz        int                `json:"freq_mhz"`
	VoltageV       float64            `json:"voltage_v"`
	PredictedW     float64            `json:"predicted_w"`
	ObservedW      float64            `json:"observed_w"`
	ResidualW      float64            `json:"residual_w"`
	Rates          map[string]float64 `json:"rates"`
}

// Records returns the captured exemplars sorted worst-first. This is
// the reporting path; it allocates freely.
func (e *Exemplars) Records() []ExemplarRecord {
	out := make([]ExemplarRecord, 0, len(e.heap))
	for i := range e.heap {
		en := &e.heap[i]
		rates := make(map[string]float64, len(en.rates))
		for _, re := range en.rates {
			rates[pmu.Lookup(re.id).Name] = re.rate
		}
		out = append(out, ExemplarRecord{
			TimeNs:         en.obs.TimeNs,
			CapturedUnixNs: en.captured.UnixNano(),
			Session:        en.obs.Session,
			TraceID:        en.obs.TraceID,
			ModelVersion:   en.obs.ModelVersion,
			FreqMHz:        en.obs.FreqMHz,
			VoltageV:       en.obs.VoltageV,
			PredictedW:     en.obs.PredictedW,
			ObservedW:      en.obs.ObservedW,
			ResidualW:      en.obs.PredictedW - en.obs.ObservedW,
			Rates:          rates,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		ri := math.Abs(out[i].ResidualW)
		rj := math.Abs(out[j].ResidualW)
		if ri != rj {
			return ri > rj
		}
		return out[i].TimeNs < out[j].TimeNs
	})
	return out
}
