package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// reportSchema names the report format written by every run and
// accepted by -validate and -compare.
const reportSchema = "pmcpower/bench/v1"

// report is the machine-readable result of one bench invocation.
type report struct {
	Schema    string    `json:"schema"`
	Generated string    `json:"generated"`
	Machine   machine   `json:"machine"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Workloads []*result `json:"workloads"`
}

// machine records where a report was measured.
type machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func (m machine) String() string {
	return fmt.Sprintf("%s/%s, %s, nproc %d, GOMAXPROCS %d, %s",
		m.GOOS, m.GOARCH, m.CPUModel, m.NProc, m.GOMAXPROCS, m.GoVersion)
}

func thisMachine() machine {
	return machine{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome.
type result struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Warnings  []string               `json:"warnings,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ladder    []rung                 `json:"ladder,omitempty"`
}

func newResult(name string) *result {
	return &result{Name: name, Metrics: map[string]metricValue{}}
}

// set records a catalog metric.
func (r *result) set(name string, v float64) {
	def, ok := catalog[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.unit}
}

// check records a failed correctness check.
func (r *result) check(err error) { r.Failures = append(r.Failures, err.Error()) }

// stealWarnPct is the share of the machine's CPU time, stolen by the
// hypervisor while a workload was measured, above which the run warns
// that its wall-time metrics are suspect.
const stealWarnPct = 5

// setSteal records the steal over the measured part of a workload.
func (r *result) setSteal(pct float64) {
	r.set("machine.steal_pct", pct)
	if pct > stealWarnPct {
		r.Warnings = append(r.Warnings, fmt.Sprintf(
			"the hypervisor stole %.1f %% of the machine's CPU time while measuring; wall-time metrics are suspect", pct))
	}
}

// endToEnd are the metrics measured only with tracing off.
var endToEnd = map[string]bool{
	"setup_s": true, "throughput_sps": true, "latency_p50_ms": true, "latency_p99_ms": true,
	"cpu_us_per_sample": true, "max_rss_mb": true, "latency_samples": true,
}

// finish settles correctness and the error rate. A traced run drops
// the end-to-end metrics: tracing perturbs them.
func (r *result) finish(traced bool) {
	r.Correct = r.Failed == 0 && len(r.Failures) == 0
	if traced {
		for name := range r.Metrics {
			if endToEnd[name] {
				delete(r.Metrics, name)
			}
		}
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	r.set("error_rate", rate)
}

// merge copies o's checks and the metrics r lacks into r.
func (r *result) merge(o *result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Failures = append(r.Failures, o.Failures...)
	r.Warnings = append(r.Warnings, o.Warnings...)
	for k, v := range o.Metrics {
		if _, ok := r.Metrics[k]; !ok {
			r.Metrics[k] = v
		}
	}
	r.Ladder = append(r.Ladder, o.Ladder...)
}

func newReport(cfg *config) *report {
	return &report{
		Schema:    reportSchema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Machine:   thisMachine(),
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Traced:    cfg.tracer != nil,
	}
}

func (rep *report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readReport strict-decodes a report and validates it against spec.
func readReport(path string, spec *benchSpec) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := decodeReport(raw, spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// decodeReport rejects unknown fields, a wrong schema, missing machine
// data, unknown workloads and metrics, a metric BENCHMARK.json names
// that is missing for its workload or carries the wrong unit,
// non-finite values, latency p99 below p50, and an error rate outside
// [0, 1].
func decodeReport(raw []byte, spec *benchSpec) (*report, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("strict decode: %w", err)
	}
	if dec.More() {
		return nil, errors.New("trailing data after the report")
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("schema %q, want %q", rep.Schema, reportSchema)
	}
	m := rep.Machine
	if m.GOOS == "" || m.GOARCH == "" || m.CPUModel == "" || m.GoVersion == "" || m.NProc < 1 || m.GOMAXPROCS < 1 {
		return nil, fmt.Errorf("machine record incomplete: %+v", m)
	}
	if rep.Generated == "" || !(rep.Seconds > 0) {
		return nil, errors.New("generated time or seconds missing")
	}
	if len(rep.Workloads) == 0 {
		return nil, errors.New("no workloads")
	}
	seen := map[string]bool{}
	for _, w := range rep.Workloads {
		if w == nil || !spec.workloadSet[w.Name] {
			return nil, fmt.Errorf("unknown workload in report")
		}
		if seen[w.Name] {
			return nil, fmt.Errorf("workload %s reported twice", w.Name)
		}
		seen[w.Name] = true
		if err := validateResult(w, spec, rep.Traced); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return &rep, nil
}

func validateResult(w *result, spec *benchSpec, traced bool) error {
	if w.Attempted < 1 || w.Failed < 0 || w.Failed > w.Attempted {
		return fmt.Errorf("attempted %d, failed %d", w.Attempted, w.Failed)
	}
	for name, v := range w.Metrics {
		def, ok := catalog[name]
		if !ok {
			return fmt.Errorf("unknown metric %q", name)
		}
		if v.Unit != def.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", name, v.Unit, def.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	for _, m := range spec.required(traced) {
		if _, ok := w.Metrics[m.Name]; !ok {
			return fmt.Errorf("metric %s missing", m.Name)
		}
	}
	p50, ok50 := w.Metrics["latency_p50_ms"]
	p99, ok99 := w.Metrics["latency_p99_ms"]
	if ok50 && ok99 && p99.Value < p50.Value {
		return fmt.Errorf("latency p99 %v ms below p50 %v ms", p99.Value, p50.Value)
	}
	er, ok := w.Metrics["error_rate"]
	if !ok {
		return errors.New("metric error_rate missing")
	}
	if er.Value < 0 || er.Value > 1 {
		return fmt.Errorf("error_rate %v outside [0, 1]", er.Value)
	}
	return nil
}
