package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmcpower/internal/obs"
)

func writeTrace(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const rootSpan = `{"name":"POST /v1/estimate","ph":"X","ts":0,"dur":5,"pid":1,"tid":1,
	"args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7"}}`

func TestCheckValidLinkage(t *testing.T) {
	p := writeTrace(t, `{"traceEvents":[`+rootSpan+`,
		{"name":"reject","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,
		 "args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"0000000000000001","parent_span_id":"00f067aa0ba902b7"}}]}`)
	if err := check(p, "", true); err != nil {
		t.Fatalf("valid linked trace rejected: %v", err)
	}
	if err := check(p, "reject,POST /v1/estimate", true); err != nil {
		t.Fatalf("required spans not found: %v", err)
	}
}

func TestCheckOrphanedSpan(t *testing.T) {
	p := writeTrace(t, `{"traceEvents":[`+rootSpan+`,
		{"name":"child","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,
		 "args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"0000000000000001","parent_span_id":"deadbeefdeadbeef"}}]}`)
	err := check(p, "", false)
	if err == nil || !strings.Contains(err.Error(), "orphaned") {
		t.Fatalf("orphaned span not detected: %v", err)
	}
}

func TestCheckMalformedIDs(t *testing.T) {
	for _, body := range []string{
		`{"traceEvents":[{"name":"s","ph":"X","args":{"trace_id":"XYZ","span_id":"0000000000000001"}}]}`,
		`{"traceEvents":[{"name":"s","ph":"X","args":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"short"}}]}`,
	} {
		if err := check(writeTrace(t, body), "", false); err == nil {
			t.Fatalf("malformed ids accepted: %s", body)
		}
	}
}

func TestCheckRequireIDs(t *testing.T) {
	p := writeTrace(t, `{"traceEvents":[{"name":"bare","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`)
	if err := check(p, "", false); err != nil {
		t.Fatalf("unannotated pipeline trace rejected without -require-ids: %v", err)
	}
	if err := check(p, "", true); err == nil {
		t.Fatal("unannotated trace accepted under -require-ids")
	}
}

func TestCheckMissingRequired(t *testing.T) {
	p := writeTrace(t, `{"traceEvents":[`+rootSpan+`]}`)
	if err := check(p, "nope", false); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing required span not reported: %v", err)
	}
}

// TestCheckAcceptsFlightRecorderDump closes the loop with the real
// exporter: a recorder dump with retained traces passes the strictest
// checks (ids required, no orphans).
func TestCheckAcceptsFlightRecorderDump(t *testing.T) {
	rec := obs.NewFlightRecorder(obs.FlightRecorderConfig{Stages: []string{"parse", "push"}})
	tc, _ := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	at := rec.Begin(tc, "POST", "/v1/estimate")
	at.AddStages([]obs.StageSums{{Count: 1, TotalNs: 1e6, MaxNs: 1e6}}, 0)
	at.Event("reject", "bad line", 1e3)
	at.Error("boom")
	rec.Finish(at, 400)

	p := filepath.Join(t.TempDir(), "dump.json")
	if err := rec.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	if err := check(p, "POST /v1/estimate", true); err != nil {
		t.Fatalf("real recorder dump rejected: %v", err)
	}
}
