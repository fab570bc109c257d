package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets are the fixed log-spaced histogram bounds (seconds)
// used for every latency histogram in the codebase: the classic
// 1–2.5–5 ladder from 1µs to 10s. A shared fixed ladder keeps
// histograms comparable across metrics and renders byte-stably.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Label is one metric label pair. Labels on a collector are sorted by
// key at registration, so the exposition is canonical regardless of
// the order call sites pass them in.
type Label struct {
	Key, Value string
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration is idempotent: asking for an
// existing (name, labels) pair returns the existing collector, so
// package-level instruments and per-instance instruments can share a
// registry without double-registration errors. Mixing types under one
// name panics — that is a programming error, not an operational
// condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, typ string
	series          map[string]*series // canonical label signature -> series
}

type series struct {
	labels []Label // sorted by key
	col    any     // *Counter, *Gauge, *Histogram, or gaugeFunc
}

type gaugeFunc func() float64

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Library-level
// instruments (e.g. the parallel engine's task counters) register
// here; pmcpowerd serves it at /metrics.
func Default() *Registry { return defaultRegistry }

// Counter is a monotonically increasing count. All methods are
// goroutine-safe and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are cumulative
// upper bounds in ascending order (an implicit +Inf bucket is always
// present). Observe is goroutine-safe.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	count  uint64
	// exemplars holds the latest trace-id exemplar per bucket, allocated
	// lazily on the first ObserveExemplar so plain histograms pay
	// nothing. Exemplars are exposed only through the Exemplars method
	// (JSON debug surfaces) — the Prometheus text exposition is
	// unchanged, keeping its byte-stability contract.
	exemplars []BucketExemplar
}

// BucketExemplar links one histogram bucket to the most recent traced
// observation that landed in it, so a latency bucket resolves to a
// concrete request trace.
type BucketExemplar struct {
	// LE is the bucket's upper bound rendered like the text exposition
	// (`+Inf` for the overflow bucket).
	LE      string  `json:"le"`
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// ObserveExemplar records one value and, when traceID is non-empty,
// stamps it as the bucket's exemplar (latest wins).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]BucketExemplar, len(h.bounds)+1)
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		h.exemplars[i] = BucketExemplar{LE: le, Value: v, TraceID: traceID}
	}
	h.mu.Unlock()
}

// Exemplars returns the buckets currently carrying an exemplar,
// ordered by bound. Empty until the first ObserveExemplar.
func (h *Histogram) Exemplars() []BucketExemplar {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []BucketExemplar
	for _, e := range h.exemplars {
		if e.TraceID != "" {
			out = append(out, e)
		}
	}
	return out
}

// HistogramSnapshot is a consistent point-in-time copy of a
// histogram's state, taken under one lock acquisition so the bucket
// counts, sum, and total agree with each other.
type HistogramSnapshot struct {
	// Bounds are the cumulative upper bucket bounds, ascending; the
	// implicit +Inf bucket is not listed.
	Bounds []float64
	// Counts holds per-bucket (non-cumulative) observation counts,
	// len(Bounds)+1 with the +Inf overflow last.
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot returns a consistent copy of the histogram's buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the snapshot's
// distribution by linear interpolation within the bucket holding the
// target rank — the same estimate a Prometheus histogram_quantile
// produces. ok is false for an empty histogram or q outside [0,1]. If
// the rank lands in the +Inf overflow bucket the highest finite bound
// is returned: the true value is only known to be at least that large.
func (s HistogramSnapshot) Quantile(q float64) (float64, bool) {
	if s.Count == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return 0, false
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next < rank && i < len(s.Counts)-1 {
			cum = next
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no finite upper edge to interpolate to.
			if len(s.Bounds) == 0 {
				return 0, false
			}
			return s.Bounds[len(s.Bounds)-1], true
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - cum) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac, true
	}
	return 0, false
}

// StripedHistogram is a Histogram split across independently locked
// stripes so concurrent observers on different stripes never contend.
// It registers and renders as one histogram family — stripe counts are
// merged at snapshot/render time, so the exposition is byte-identical
// to a single histogram fed the same observations. The serving layer
// stripes its per-sample estimate-latency histogram by session shard.
type StripedHistogram struct {
	stripes []*Histogram
}

// Observe records one value on stripe i (taken modulo the stripe
// count, so any non-negative shard index is a valid stripe).
func (h *StripedHistogram) Observe(i int, v float64) {
	h.stripes[uint(i)%uint(len(h.stripes))].Observe(v)
}

// Snapshot returns a merged copy of all stripes. Stripes are locked
// one at a time, so the merge is consistent per stripe but not across
// stripes — the same guarantee a scrape of independent series gives.
func (h *StripedHistogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{Bounds: h.stripes[0].bounds}
	out.Counts = make([]uint64, len(out.Bounds)+1)
	for _, s := range h.stripes {
		snap := s.Snapshot()
		for i, c := range snap.Counts {
			out.Counts[i] += c
		}
		out.Sum += snap.Sum
		out.Count += snap.Count
	}
	return out
}

// StripedHistogram returns the striped histogram registered under name
// with the given labels, creating it with the given bounds and stripe
// count (minimum 1) on first use. Like all registrations it is
// idempotent; the first registration's stripe count wins.
func (r *Registry) StripedHistogram(name, help string, bounds []float64, stripes int, labels ...Label) *StripedHistogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	if stripes < 1 {
		stripes = 1
	}
	return register(r, name, help, "histogram", labels, func() *StripedHistogram {
		sh := &StripedHistogram{stripes: make([]*Histogram, stripes)}
		for i := range sh.stripes {
			sh.stripes[i] = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		}
		return sh
	})
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return register(r, name, help, "counter", labels, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name with the given
// labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return register(r, name, help, "gauge", labels, func() *Gauge { return &Gauge{} })
}

// GaugeFunc registers a gauge whose value is sampled from fn at
// render time (e.g. "active sessions" owned by a session table). The
// first registration under a (name, labels) pair wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	register(r, name, help, "gauge", labels, func() gaugeFunc { return gaugeFunc(fn) })
}

// Histogram returns the histogram registered under name with the
// given labels, creating it with the given bucket bounds on first
// use. Bounds must be ascending; nil means LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	return register(r, name, help, "histogram", labels, func() *Histogram {
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	})
}

func register[C any](r *Registry, name, help, typ string, labels []Label, mk func() C) C {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	sig := labelSignature(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.typ, typ))
	}
	if s, ok := fam.series[sig]; ok {
		c, ok := s.col.(C)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q{%s} collector type mismatch", name, sig))
		}
		return c
	}
	c := mk()
	fam.series[sig] = &series{labels: ls, col: c}
	return c
}

// labelSignature renders sorted labels canonically for map keys and
// the exposition: k1="v1",k2="v2".
func labelSignature(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	return sb.String()
}

// formatFloat renders a float the way the Prometheus text format
// expects, with the shortest round-trip representation so rendering
// is byte-stable for a fixed value.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the registry in the Prometheus text exposition
// format. Metric families are sorted by name and label sets sorted by
// their canonical signature, so for a fixed set of values the output
// is byte-for-byte stable across renders and across process runs —
// the property the seed repo maintained by hand and a test now
// asserts.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type snapSeries struct {
		sig    string
		labels []Label
		col    any
	}
	type snapFamily struct {
		name, help, typ string
		series          []snapSeries
	}
	fams := make([]snapFamily, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		sf := snapFamily{name: f.name, help: f.help, typ: f.typ}
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			sf.series = append(sf.series, snapSeries{sig: sig, labels: s.labels, col: s.col})
		}
		fams = append(fams, sf)
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch c := s.col.(type) {
			case *Counter:
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, renderLabels(s.sig), c.Value())
			case *Gauge:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, renderLabels(s.sig), formatFloat(c.Value()))
			case gaugeFunc:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, renderLabels(s.sig), formatFloat(c()))
			case *Histogram:
				renderHistogram(&sb, f.name, s.sig, c.Snapshot())
			case *StripedHistogram:
				renderHistogram(&sb, f.name, s.sig, c.Snapshot())
			}
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

func renderLabels(sig string) string {
	if sig == "" {
		return ""
	}
	return "{" + sig + "}"
}

func renderHistogram(sb *strings.Builder, name, sig string, snap HistogramSnapshot) {
	cum := uint64(0)
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(sb, "%s_bucket%s %d\n", name, renderLabels(joinSig(sig, fmt.Sprintf("le=%q", formatFloat(bound)))), cum)
	}
	cum += snap.Counts[len(snap.Bounds)]
	fmt.Fprintf(sb, "%s_bucket%s %d\n", name, renderLabels(joinSig(sig, `le="+Inf"`)), cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, renderLabels(sig), formatFloat(snap.Sum))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, renderLabels(sig), snap.Count)
}

func joinSig(sig, extra string) string {
	if sig == "" {
		return extra
	}
	return sig + "," + extra
}

// Render returns the exposition as a string.
func (r *Registry) Render() string {
	var sb strings.Builder
	r.WriteTo(&sb)
	return sb.String()
}
