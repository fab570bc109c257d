// Command pmcpowertop is a polling console dashboard over a running
// pmcpowerd: it fetches GET /v1/status and renders the served models'
// quality (drift state, windowed MAPE, signed bias, error quantiles,
// exemplar counts) as a plain text table, top-style.
//
// Usage:
//
//	pmcpowertop [-addr http://127.0.0.1:9120] [-interval 2s]
//	pmcpowertop -once                  # print one snapshot and exit
//	pmcpowertop -once -validate        # also verify the /v1/status shape (CI)
//
// -validate decodes the status document with unknown fields
// disallowed and checks the documented invariants; any violation is a
// non-zero exit, which CI uses to pin the /v1/status contract against
// a live daemon. It applies the same strict decode to /debug/requests
// (the flight-recorder view), so the request-tracing contract is
// pinned too.
//
// Each snapshot also renders the daemon's recent requests — trace ID,
// method, path, status, duration, retention — from /debug/requests,
// so a drifting model or a latency outlier can be chased to a
// concrete trace without leaving the terminal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pmcpower/internal/buildinfo"
	"pmcpower/internal/obs"
	"pmcpower/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:9120", "pmcpowerd base URL")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "print one snapshot and exit (for scripting)")
	validate := flag.Bool("validate", false, "strictly validate the /v1/status document shape")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Format("pmcpowertop"))
		return
	}

	client := &http.Client{Timeout: 10 * time.Second}
	for {
		status, err := fetchStatus(client, *addr, *validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmcpowertop:", err)
			os.Exit(1)
		}
		if *validate {
			if err := validateStatus(status); err != nil {
				fmt.Fprintln(os.Stderr, "pmcpowertop: status validation:", err)
				os.Exit(1)
			}
		}
		reqs, err := fetchRequests(client, *addr, *validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmcpowertop:", err)
			os.Exit(1)
		}
		if *validate {
			if err := validateRequests(reqs); err != nil {
				fmt.Fprintln(os.Stderr, "pmcpowertop: requests validation:", err)
				os.Exit(1)
			}
		}
		if !*once {
			// Clear screen and home the cursor between polls.
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Print(render(status))
		fmt.Print(renderRequests(reqs))
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// fetchStatus GETs /v1/status. With strict set, unknown fields in the
// document are an error — the shape check CI relies on.
func fetchStatus(client *http.Client, base string, strict bool) (serve.StatusResponse, error) {
	var status serve.StatusResponse
	resp, err := client.Get(strings.TrimRight(base, "/") + "/v1/status")
	if err != nil {
		return status, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return status, err
	}
	if resp.StatusCode != http.StatusOK {
		return status, fmt.Errorf("/v1/status returned %d: %s", resp.StatusCode, raw)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(&status); err != nil {
		return status, fmt.Errorf("decoding /v1/status: %w", err)
	}
	return status, nil
}

// validateStatus checks the documented invariants of the status
// document beyond mere decodability.
func validateStatus(s serve.StatusResponse) error {
	if s.Service != "pmcpowerd" {
		return fmt.Errorf("service = %q, want pmcpowerd", s.Service)
	}
	if s.Version == "" {
		return fmt.Errorf("version is empty")
	}
	if !strings.HasPrefix(s.GoVersion, "go") {
		return fmt.Errorf("go_version = %q", s.GoVersion)
	}
	if s.UptimeS < 0 {
		return fmt.Errorf("uptime_s = %v", s.UptimeS)
	}
	switch s.Health.Status {
	case "ok", "warn", "alert", "unavailable":
	default:
		return fmt.Errorf("health.status = %q", s.Health.Status)
	}
	if s.Health.ServableModels != len(modelNames(s.Models)) {
		return fmt.Errorf("servable_models = %d but %d model names listed",
			s.Health.ServableModels, len(modelNames(s.Models)))
	}
	if s.Sessions.Shards < 1 {
		return fmt.Errorf("sessions.shards = %d, want >= 1", s.Sessions.Shards)
	}
	if s.Sessions.Shards&(s.Sessions.Shards-1) != 0 {
		return fmt.Errorf("sessions.shards = %d, want a power of two", s.Sessions.Shards)
	}
	if len(s.Sessions.PerShard) != s.Sessions.Shards {
		return fmt.Errorf("per_shard has %d entries for %d shards", len(s.Sessions.PerShard), s.Sessions.Shards)
	}
	perShard := 0
	for i, n := range s.Sessions.PerShard {
		if n < 0 {
			return fmt.Errorf("per_shard[%d] = %d", i, n)
		}
		perShard += n
	}
	if perShard != s.Sessions.Active {
		return fmt.Errorf("per_shard sums to %d but active = %d", perShard, s.Sessions.Active)
	}
	if s.Admission.InFlight < 0 || s.Admission.MaxInFlight < 0 || s.Admission.ShedP99MS < 0 || s.Admission.P99EwmaMS < 0 {
		return fmt.Errorf("admission block has negative fields: %+v", s.Admission)
	}
	if !s.Admission.Enabled && (s.Admission.Shedding || s.Admission.ShedTotal != 0) {
		return fmt.Errorf("admission disabled but shedding state set: %+v", s.Admission)
	}
	for _, q := range s.Quality {
		switch q.State {
		case "ok", "warn", "alert":
		default:
			return fmt.Errorf("quality[%s].state = %q", q.Model, q.State)
		}
		if q.WindowN < 0 || q.Exemplars < 0 {
			return fmt.Errorf("quality[%s] has negative counts", q.Model)
		}
	}
	return nil
}

// fetchRequests GETs /debug/requests, strictly when validating.
func fetchRequests(client *http.Client, base string, strict bool) (serve.RequestsResponse, error) {
	var reqs serve.RequestsResponse
	resp, err := client.Get(strings.TrimRight(base, "/") + "/debug/requests")
	if err != nil {
		return reqs, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reqs, err
	}
	if resp.StatusCode != http.StatusOK {
		return reqs, fmt.Errorf("/debug/requests returned %d: %s", resp.StatusCode, raw)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(&reqs); err != nil {
		return reqs, fmt.Errorf("decoding /debug/requests: %w", err)
	}
	return reqs, nil
}

// validateRequests checks the documented invariants of the
// flight-recorder view beyond mere decodability.
func validateRequests(r serve.RequestsResponse) error {
	if r.Service != "pmcpowerd" {
		return fmt.Errorf("service = %q, want pmcpowerd", r.Service)
	}
	if r.RetainedTotal < uint64(len(r.RetainedTraces)) {
		return fmt.Errorf("retained_total = %d < %d retained traces listed",
			r.RetainedTotal, len(r.RetainedTraces))
	}
	for _, s := range append(append([]obs.RequestSummary{}, r.InFlight...), r.Recent...) {
		if len(s.TraceID) != 32 || len(s.SpanID) != 16 {
			return fmt.Errorf("request %s %s has malformed ids %q/%q", s.Method, s.Path, s.TraceID, s.SpanID)
		}
	}
	for _, rt := range r.RetainedTraces {
		if !rt.Summary.Retained {
			return fmt.Errorf("retained trace %s not marked retained", rt.Summary.TraceID)
		}
	}
	return nil
}

// renderRequests formats the recent-traces section under the quality
// table: newest first, retained traces marked so an operator can pull
// them from /debug/flightrec by trace id.
func renderRequests(r serve.RequestsResponse) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nrequests: %d total, %d retained", r.RequestsTotal, r.RetainedTotal)
	if r.SlowThresholdS > 0 {
		fmt.Fprintf(&sb, ", slow > %.3fs", r.SlowThresholdS)
	}
	sb.WriteByte('\n')
	rows := append(append([]obs.RequestSummary{}, r.InFlight...), r.Recent...)
	if len(rows) == 0 {
		sb.WriteString("(no requests yet)\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-32s %-6s %-14s %6s %9s %8s %s\n",
		"TRACE", "METHOD", "PATH", "STATUS", "DUR MS", "SAMPLES", "NOTE")
	const maxRows = 15
	shown := rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	for _, s := range shown {
		note := ""
		switch {
		case s.InFlight:
			note = "in-flight"
		case s.Slow:
			note = "slow"
		case s.FlagReason != "":
			note = s.FlagReason
		case s.Error != "":
			note = "error"
		}
		if s.Retained && note != "in-flight" {
			note = strings.TrimSpace(note + " [retained]")
		}
		status := fmt.Sprintf("%d", s.Status)
		if s.InFlight {
			status = "-"
		}
		fmt.Fprintf(&sb, "%-32s %-6s %-14s %6s %9.2f %8d %s\n",
			s.TraceID, s.Method, s.Path, status,
			float64(s.DurationNs)/1e6, s.Samples, note)
	}
	if len(rows) > maxRows {
		fmt.Fprintf(&sb, "(+%d more)\n", len(rows)-maxRows)
	}
	return sb.String()
}

// shardBars renders the per-shard session counts as a compact
// " [2 0 1 …]" suffix, elided when every shard is empty.
func shardBars(perShard []int) string {
	total := 0
	for _, n := range perShard {
		total += n
	}
	if total == 0 {
		return ""
	}
	parts := make([]string, len(perShard))
	for i, n := range perShard {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return ": [" + strings.Join(parts, " ") + "]"
}

func modelNames(models []serve.ModelInfo) map[string]bool {
	names := make(map[string]bool)
	for _, m := range models {
		names[m.Name] = true
	}
	return names
}

// render formats one status snapshot as the dashboard text.
func render(s serve.StatusResponse) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s (%s)  up %s  health: %s", s.Service, s.Version, s.GoVersion,
		(time.Duration(s.UptimeS * float64(time.Second))).Round(time.Second), s.Health.Status)
	if len(s.Health.AlertingModels) > 0 {
		fmt.Fprintf(&sb, " [%s]", strings.Join(s.Health.AlertingModels, ", "))
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "models: %d   sessions: %d active, %d created, %d evicted (%d shards%s)\n",
		s.Health.ServableModels, s.Sessions.Active, s.Sessions.Created, s.Sessions.Evicted,
		s.Sessions.Shards, shardBars(s.Sessions.PerShard))
	if s.Admission.Enabled {
		state := "open"
		if s.Admission.Shedding {
			state = "SHEDDING"
		}
		fmt.Fprintf(&sb, "admission: %s   in-flight %d", state, s.Admission.InFlight)
		if s.Admission.MaxInFlight > 0 {
			fmt.Fprintf(&sb, "/%d", s.Admission.MaxInFlight)
		}
		if s.Admission.ShedP99MS > 0 {
			fmt.Fprintf(&sb, "   p99 EWMA %.2f ms (shed > %.2f ms)", s.Admission.P99EwmaMS, s.Admission.ShedP99MS)
		}
		fmt.Fprintf(&sb, "   shed %d\n", s.Admission.ShedTotal)
	} else {
		fmt.Fprintf(&sb, "admission: disabled   in-flight %d\n", s.Admission.InFlight)
	}
	sb.WriteByte('\n')

	fmt.Fprintf(&sb, "%-16s %-6s %6s %8s %9s %8s %8s %8s %9s %5s %6s %5s\n",
		"MODEL", "STATE", "N", "MAPE%", "BIAS W", "P50 W", "P95 W", "P99 W", "LABELLED", "WARN", "ALERT", "EXMP")
	if len(s.Quality) == 0 {
		sb.WriteString("(no labelled samples yet — stream power_w-labelled samples to /v1/estimate)\n")
	}
	for _, q := range s.Quality {
		fmt.Fprintf(&sb, "%-16s %-6s %6d %8.2f %+9.2f %8.2f %8.2f %8.2f %9d %5d %6d %5d\n",
			q.Model, q.State, q.WindowN, q.WindowMAPEPct, q.WindowBiasW,
			q.ErrP50W, q.ErrP95W, q.ErrP99W,
			q.LabelledSamples, q.WarnTransitions, q.AlertTransitions, q.Exemplars)
	}
	return sb.String()
}
