package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmcpower/internal/quality"
	"pmcpower/internal/serve"
)

func parse(args ...string) (*daemonFlags, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("pmcpowerd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d, err := parseFlags(fs, args)
	return d, fs, err
}

// TestParseFlagsDefaults pins every flag's name and shown default, and
// the serve.Config the defaults bind into.
func TestParseFlagsDefaults(t *testing.T) {
	d, fs, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	defaults := map[string]string{
		"model": "", "addr": ":9120", "debug-addr": "", "log-level": "info",
		"selfcal": "false", "seed": "42", "alpha": "1", "refit-window": "0",
		"idle-ttl": "5m0s", "max-sessions": "1024", "shards": "8",
		"max-inflight": "0", "shed-p99-ms": "0", "retry-after": "1s",
		"max-body-bytes": "8388608", "quality-window": "256", "quality-exemplars": "32",
		"quality-warn-mape": "10", "quality-alert-mape": "20",
		"flightrec-dump": "pmcpowerd-flightrec.json", "flightrec-retain": "64",
		"flightrec-min-slow": "1s", "version": "false",
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if want, ok := defaults[f.Name]; !ok || f.DefValue != want {
			t.Errorf("flag -%s shows default %q, want %q (known %v)", f.Name, f.DefValue, want, ok)
		}
	})
	if n != len(defaults) {
		t.Errorf("%d flags, want %d", n, len(defaults))
	}

	want := serve.Config{
		DefaultAlpha:      1,
		IdleTTL:           5 * time.Minute,
		MaxSessions:       1024,
		Shards:            8,
		RetryAfter:        time.Second,
		MaxBodyBytes:      8 << 20,
		QualityWindow:     256,
		QualityExemplars:  32,
		QualityThresholds: quality.Thresholds{WarnMAPEPct: 10, AlertMAPEPct: 20},
		FlightRecRetain:   64,
		FlightRecMinSlow:  time.Second,
		FlightRecDumpPath: "pmcpowerd-flightrec.json",
	}
	if !reflect.DeepEqual(d.cfg, want) {
		t.Errorf("default config = %+v, want %+v", d.cfg, want)
	}
	if d.addr != ":9120" || d.debugAddr != "" || d.logLevel != "info" || d.selfcal || d.seed != 42 || d.version || len(d.modelPaths) != 0 {
		t.Errorf("default local settings = %+v", d)
	}
}

// TestParseFlagsRefusesValuesEveryRequestFails: a default alpha outside
// (0,1] fails every estimate stream without ?alpha=, a negative
// session cap, body cap, idle TTL or refit window fails the requests
// that reach it, and a quality window below quality.MinSamples never
// evaluates drift; each is refused at startup with an error naming the
// flag.
func TestParseFlagsRefusesValuesEveryRequestFails(t *testing.T) {
	for _, args := range [][]string{
		{"-alpha", "2"},
		{"-alpha", "0"},
		{"-alpha", "-0.5"},
		{"-alpha", "NaN"},
		{"-max-sessions", "-1"},
		{"-max-body-bytes", "-1"},
		{"-idle-ttl", "-1s"},
		{"-refit-window", "-1"},
		{"-quality-window", "-1"},
		{"-quality-window", "1"},
		{"-quality-window", "31"},
	} {
		_, _, err := parse(args...)
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+" ") {
			t.Errorf("%v: error %v, want one naming %s", args, err, args[0])
		}
	}

	// The edges stay accepted: alpha 1, 0 for the counts, which takes
	// the server's default, and a quality window of exactly
	// quality.MinSamples.
	d, _, err := parse("-alpha", "1", "-max-sessions", "0", "-max-body-bytes", "0", "-idle-ttl", "0s", "-refit-window", "0",
		"-quality-window", "0", "-shed-p99-ms", "2.5", "-model", "a.json", "-model", "b.json")
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.ShedP99 != 2500*time.Microsecond || len(d.modelPaths) != 2 || d.cfg.QualityWindow != 0 {
		t.Errorf("parsed %+v", d)
	}
	if d, _, err := parse("-quality-window", "32"); err != nil || d.cfg.QualityWindow != quality.MinSamples {
		t.Errorf("-quality-window 32: %v, %+v", err, d)
	}
}
