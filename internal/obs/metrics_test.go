package obs

import (
	"math"
	"strings"
	"testing"
)

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.Snapshot().Count }

// Quantile estimates the q-quantile of the recorded distribution; see
// HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) (float64, bool) { return h.Snapshot().Quantile(q) }

func TestRegistryRenderCanonicalAndByteStable(t *testing.T) {
	reg := NewRegistry()
	// Register out of order, with labels in non-sorted key order: the
	// exposition must come out canonically sorted regardless.
	reg.Counter("zz_last_total", "Last family.").Add(3)
	reg.Counter("aa_first_total", "First family.",
		Label{Key: "reason", Value: "parse"}).Add(1)
	reg.Counter("aa_first_total", "First family.",
		Label{Key: "reason", Value: "bad_rate"}).Add(2)
	reg.Gauge("mm_middle", "Middle family.",
		Label{Key: "z", Value: "1"}, Label{Key: "a", Value: "2"}).Set(4.5)

	first := reg.Render()
	second := reg.Render()
	if first != second {
		t.Fatalf("render is not byte-stable:\n--- first ---\n%s--- second ---\n%s", first, second)
	}

	// Families sorted by name, label sets sorted within a family, and
	// labels sorted by key inside a series.
	iAA1 := strings.Index(first, `aa_first_total{reason="bad_rate"} 2`)
	iAA2 := strings.Index(first, `aa_first_total{reason="parse"} 1`)
	iMM := strings.Index(first, `mm_middle{a="2",z="1"} 4.5`)
	iZZ := strings.Index(first, "zz_last_total 3")
	for name, idx := range map[string]int{"aa bad_rate": iAA1, "aa parse": iAA2, "mm": iMM, "zz": iZZ} {
		if idx < 0 {
			t.Fatalf("missing %s line in:\n%s", name, first)
		}
	}
	if !(iAA1 < iAA2 && iAA2 < iMM && iMM < iZZ) {
		t.Errorf("lines out of canonical order (%d %d %d %d):\n%s", iAA1, iAA2, iMM, iZZ, first)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total", "X.")
	c2 := reg.Counter("x_total", "X.")
	if c1 != c2 {
		t.Fatalf("same (name, labels) returned distinct counters")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatalf("counters not shared: %d", c2.Value())
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("registering x_total as a gauge should panic")
		}
	}()
	reg.Gauge("x_total", "X.")
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	out := reg.Render()
	// le="0.01" is cumulative and inclusive: 0.005 and 0.01.
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
		`# TYPE lat_seconds histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	if _, ok := h.Quantile(0.99); ok {
		t.Fatal("empty histogram reported a quantile")
	}
	// 10 observations in (0.01, 0.1], none elsewhere: every quantile
	// interpolates inside that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	s := h.Snapshot()
	if s.Count != 10 || s.Counts[1] != 10 {
		t.Fatalf("snapshot = %+v", s)
	}
	q50, ok := h.Quantile(0.5)
	if !ok || q50 <= 0.01 || q50 > 0.1 {
		t.Fatalf("q50 = %v, %v; want inside (0.01, 0.1]", q50, ok)
	}
	q99, ok := h.Quantile(0.99)
	if !ok || q99 < q50 || q99 > 0.1 {
		t.Fatalf("q99 = %v, %v; want in [q50, 0.1]", q99, ok)
	}
	// A tail observation in the overflow bucket pins high quantiles to
	// the largest finite bound.
	h.Observe(5)
	if q, ok := h.Quantile(1); !ok || q != 1 {
		t.Fatalf("q100 with overflow = %v, %v; want highest finite bound 1", q, ok)
	}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if _, ok := h.Quantile(bad); ok {
			t.Errorf("Quantile(%v) reported ok", bad)
		}
	}
}

// TestHistogramSnapshotQuantileEdges pins the HistogramSnapshot
// corner cases the happy-path test above does not reach: an empty
// snapshot, a single observation, the exact q=0 and q=1 endpoints,
// and a distribution living entirely beyond the last finite bound.
func TestHistogramSnapshotQuantileEdges(t *testing.T) {
	// Empty snapshot: no quantile at any q.
	empty := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{0, 0, 0}}
	for _, q := range []float64{0, 0.5, 1} {
		if v, ok := empty.Quantile(q); ok {
			t.Errorf("empty snapshot Quantile(%v) = %v, ok", q, v)
		}
	}

	// Single observation in the first bucket: every valid q lands in
	// that bucket's range (0, 1].
	reg := NewRegistry()
	h := reg.Histogram("edge_seconds", "Edges.", []float64{1, 2, 4})
	h.Observe(0.5)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		v, ok := h.Quantile(q)
		if !ok || v < 0 || v > 1 {
			t.Errorf("single-observation Quantile(%v) = %v, %v; want inside [0, 1]", q, v, ok)
		}
	}

	// q=0 is the distribution floor, q=1 the ceiling: with the counts
	// split across two buckets the endpoints must bracket the interior.
	h.Observe(3) // (2, 4]
	lo, ok1 := h.Quantile(0)
	hi, ok2 := h.Quantile(1)
	mid, ok3 := h.Quantile(0.5)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("endpoint quantiles missing: %v %v %v", ok1, ok2, ok3)
	}
	if lo > mid || mid > hi {
		t.Fatalf("quantiles not monotone: q0=%v q50=%v q100=%v", lo, mid, hi)
	}
	if hi > 4 {
		t.Fatalf("q100 = %v beyond the covering bound 4", hi)
	}

	// Everything beyond the last finite bound: the true quantile is
	// unknowable, so the estimate saturates at that bound.
	over := reg.Histogram("over_seconds", "Overflow only.", []float64{1, 2})
	over.Observe(100)
	over.Observe(200)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v, ok := over.Quantile(q)
		if !ok || v != 2 {
			t.Errorf("overflow-only Quantile(%v) = %v, %v; want saturated at 2", q, v, ok)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 7.0
	reg.GaugeFunc("live_things", "Live things.", func() float64 { return v })
	if !strings.Contains(reg.Render(), "live_things 7") {
		t.Fatalf("gauge func not rendered:\n%s", reg.Render())
	}
	v = 9
	if !strings.Contains(reg.Render(), "live_things 9") {
		t.Fatalf("gauge func not re-sampled:\n%s", reg.Render())
	}
}

func TestLatencyBucketsAscending(t *testing.T) {
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i] <= LatencyBuckets[i-1] {
			t.Fatalf("LatencyBuckets not ascending at %d: %v", i, LatencyBuckets)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "Info": "INFO", "WARN": "WARN", "error": "ERROR",
	} {
		lv, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lv.String() != want {
			t.Errorf("ParseLevel(%q) = %s, want %s", in, lv, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatalf("ParseLevel(loud) should fail")
	}
}
