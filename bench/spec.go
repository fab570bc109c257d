package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json at the repository root: the workloads,
// the end-to-end metrics with their regression bounds, and the
// per-layer metrics. The bench reads it for the bounds -compare
// applies and for the metric set each run must print; startup checks
// it against the catalog below so the two cannot drift apart.
type benchSpec struct {
	Command     []string       `json:"command"`
	Paths       []string       `json:"paths"`
	RunSeconds  int            `json:"run_seconds"`
	Workloads   []specWorkload `json:"workloads"`
	EndToEnd    []specMetric   `json:"end_to_end"`
	PerLayer    []specMetric   `json:"per_layer"`
	byName      map[string]specMetric
	workloadSet map[string]bool
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// metricDef is one entry of the bench's metric catalog.
type metricDef struct {
	unit   string
	better string // "lower" or "higher"
}

// catalog lists every metric the bench can report. End-to-end metrics
// are measured with tracing off; per-layer metrics come from the
// traced run. error_rate, latency_samples, latency_p99_ms and
// machine.steal_pct are report-only: the first is 0 on a healthy run
// (the driver line carries attempted and failed instead), the second
// is the sample count beside the latency quantiles, the third follows
// the machine's worst moments more than the daemon, and the last is
// the machine's, not the program's.
var catalog = map[string]metricDef{
	// end to end
	"setup_s":           {"s", "lower"},
	"throughput_sps":    {"samples/s", "higher"},
	"latency_p50_ms":    {"ms", "lower"},
	"latency_p99_ms":    {"ms", "lower"},
	"cpu_us_per_sample": {"us", "lower"},
	"max_rss_mb":        {"MB", "lower"},
	"error_rate":        {"ratio", "lower"},
	"latency_samples":   {"count", "higher"},
	"machine.steal_pct": {"%", "lower"},
	// bench (the load generator)
	"bench.late_p99_ms":        {"ms", "lower"},
	"bench.backlog_max":        {"count", "lower"},
	"bench.trace_overhead_pct": {"%", "lower"},
	// serve, measured on the daemon from outside
	"serve.cpu_s":              {"s", "lower"},
	"serve.rss_kb_per_kreq":    {"kB", "lower"},
	"serve.rejected":           {"count", "lower"},
	"serve.shed":               {"count", "lower"},
	"core.refit_rebuild_ratio": {"ratio", "lower"},
	// the in-process ladder
	"core.push_ns":                    {"ns", "lower"},
	"core.push_allocs":                {"allocs", "lower"},
	"core.push_labeled_ns":            {"ns", "lower"},
	"core.push_labeled_allocs":        {"allocs", "lower"},
	"quality.observe_ns":              {"ns", "lower"},
	"serve.engine_ns":                 {"ns", "lower"},
	"serve.engine_allocs":             {"allocs", "lower"},
	"serve.handler_ns_per_sample":     {"ns", "lower"},
	"serve.handler_allocs_per_sample": {"allocs", "lower"},
	"serve.handler_ns_per_request":    {"ns", "lower"},
	"http.ns_per_sample":              {"ns", "lower"},
	// the offline pipeline's public calls
	"acquisition.selection_campaign_s": {"s", "lower"},
	"core.select_s":                    {"s", "lower"},
	"acquisition.full_campaign_s":      {"s", "lower"},
	"core.train_s":                     {"s", "lower"},
	"core.cv_s":                        {"s", "lower"},
	"pipeline.alloc_mb":                {"MB", "lower"},
	"pipeline.cpu_util":                {"ratio", "higher"},
}

// loadSpec strict-decodes root/BENCHMARK.json and checks it against
// the catalog and the workloads the bench implements.
func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	s.byName = make(map[string]specMetric)
	for _, group := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			def, ok := catalog[m.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q is not one the bench measures", m.Name)
			}
			if m.Unit != def.unit || m.Better != def.better {
				return nil, fmt.Errorf("BENCHMARK.json: metric %s is %s/%s, the bench measures %s/%s",
					m.Name, m.Unit, m.Better, def.unit, def.better)
			}
			if _, dup := s.byName[m.Name]; dup {
				return nil, fmt.Errorf("BENCHMARK.json: metric %s listed twice", m.Name)
			}
			s.byName[m.Name] = m
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			return nil, fmt.Errorf("BENCHMARK.json: end-to-end metric %s has no bound", m.Name)
		}
	}
	s.workloadSet = make(map[string]bool)
	for _, w := range s.Workloads {
		if !knownWorkload(w.Name) {
			return nil, fmt.Errorf("BENCHMARK.json: workload %q is not one the bench implements", w.Name)
		}
		s.workloadSet[w.Name] = true
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, errors.New("BENCHMARK.json: no workloads or no end-to-end metrics")
	}
	return &s, nil
}

// required returns the metrics a run must report: every end-to-end
// metric untraced, every per-layer metric traced.
func (s *benchSpec) required(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// findRoot walks up from the working directory to the repository
// root: the directory whose go.mod declares module pmcpower.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(b, []byte("module pmcpower\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no pmcpower repository above the working directory")
		}
		dir = parent
	}
}
