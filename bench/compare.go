package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// verdict classifies B against A for one (workload, metric) by the
// metric's bound:
//
//   - unresolved: either side's run-to-run spread (interquartile range
//     over median) is wider than the bound, unless every B run beats
//     (better) or loses to (worse) every A run;
//   - worse: B's median is worse than A's by more than the bound;
//   - better: B's median is better than A's by more than A's own
//     spread, and B wins at least nine tenths of the run pairs;
//   - unchanged: otherwise.
//
// bound is relative; error_rate (absolute bound 0) is worse as soon as
// B's median exceeds A's.
func verdict(a, b []float64, better string, bound float64, absolute bool) string {
	medA, medB := median(a), median(b)
	gain := func(x, y float64) float64 { // positive when y is better than x
		if better == "higher" {
			return y - x
		}
		return x - y
	}
	if absolute {
		switch {
		case gain(medA, medB) < -bound:
			return "worse"
		case gain(medA, medB) > bound:
			return "better"
		}
		return "unchanged"
	}
	if spread(a) > bound || spread(b) > bound {
		allBetter, allWorse := true, true
		for _, x := range a {
			for _, y := range b {
				allBetter = allBetter && gain(x, y) > 0
				allWorse = allWorse && gain(x, y) < 0
			}
		}
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	rel := gain(medA, medB) / math.Abs(medA)
	if rel < -bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if gain(a[i], b[i]) > 0 {
			wins++
		}
	}
	if rel > spread(a) && rel > 0 && pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
		return "better"
	}
	return "unchanged"
}

// compareReports prints, per workload and metric, the median and
// quartiles of the A reports and of the B reports, their spreads, and
// the verdict of B against A. Metrics without a bound (per-layer and
// report-only ones) get "-". It returns the number of end-to-end rows
// that are not "unchanged".
func compareReports(out io.Writer, spec *benchSpec, aPaths, bPaths []string) (int, error) {
	a, err := collect(aPaths, spec)
	if err != nil {
		return 0, err
	}
	b, err := collect(bPaths, spec)
	if err != nil {
		return 0, err
	}
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, fmt.Errorf("the two sets share no (workload, metric)")
	}
	order := map[string]int{}
	for i, w := range spec.Workloads {
		order[w.Name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		wi, mi, _ := strings.Cut(keys[i], "\x00")
		wj, mj, _ := strings.Cut(keys[j], "\x00")
		if wi != wj {
			return order[wi] < order[wj]
		}
		return mi < mj
	})
	fmt.Fprintf(out, "%-19s %-33s %9s %22s %22s %7s %7s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "A iqr", "B iqr", "verdict")
	notUnchanged := 0
	for _, k := range keys {
		w, m, _ := strings.Cut(k, "\x00")
		av, bv := a[k], b[k]
		v := "-"
		if sm, ok := spec.byName[m]; ok && sm.Bound != nil {
			v = verdict(av, bv, sm.Better, *sm.Bound, false)
		} else if m == "error_rate" {
			v = verdict(av, bv, "lower", 0, true)
		}
		if v != "-" && v != "unchanged" {
			notUnchanged++
		}
		fmt.Fprintf(out, "%-19s %-33s %9s %22s %22s %6.1f%% %6.1f%%  %s\n",
			w, m, catalog[m].unit, summary(av), summary(bv), 100*spread(av), 100*spread(bv), v)
	}
	return notUnchanged, nil
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%s [%s, %s]", fmtNum(median(v)), fmtNum(q1), fmtNum(q3))
}

func fmtNum(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1e5:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// collect reads reports and groups their values by workload and
// metric, in the order the files were given.
func collect(paths []string, spec *benchSpec) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, p := range paths {
		rep, err := readReport(p, spec)
		if err != nil {
			return nil, err
		}
		for _, w := range rep.Workloads {
			for name, v := range w.Metrics {
				k := w.Name + "\x00" + name
				out[k] = append(out[k], v.Value)
			}
		}
	}
	return out, nil
}
