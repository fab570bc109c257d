package pmcpower

// The program golden test. It builds every command and example once,
// runs the invocations that README, DESIGN.md and the programs' usage
// comments document, plus their failure paths, in order and in one
// scratch working directory, and diffs each run's exit status, stdout,
// stderr and pinned files against testdata/programs/<name>.golden.
// pmcpowerd and pmcpowertop need a live listener; cmd/pmcpowerd's
// tests and CI's live-daemon step cover them. After a deliberate
// output change, rewrite the golden files with
//
//	go test -run TestProgramsGolden -update .
//
// and explain the diff in the change.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/programs/*.golden from the programs' output")

// notRun are the programs TestProgramsGolden does not run, each with
// the reason.
var notRun = map[string]string{
	"pmcpowerd":   "a daemon: cmd/pmcpowerd's tests and CI's live-daemon step",
	"pmcpowertop": "a console over a running daemon: CI's live-daemon step",
}

// programRun is one invocation. Runs share the working directory, so a
// run reads the files the runs before it wrote.
type programRun struct {
	name string   // golden file base name
	args []string // the program's name, then its arguments
	// setup, when set, writes the run's input files into dir first.
	setup func(t *testing.T, dir string)
	// pin names files the run writes whose bytes the golden holds.
	pin []string
}

var programRuns = []programRun{
	{name: "simulate", args: []string{"simulate", "-workload", "md", "-freq", "2400", "-threads", "24"}},
	{name: "simulate-list", args: []string{"simulate", "-list"}},
	{name: "simulate-arm", args: []string{"simulate", "-platform", "arm", "-workload", "compute", "-freq", "1800", "-threads", "4"}},
	{name: "simulate-unknown-workload", args: []string{"simulate", "-workload", "nosuch"}},

	{name: "acquire", args: []string{"acquire", "-freqs", "1200,2400", "-workloads", "compute,md", "-events", "LST_INS,TOT_CYC"}},
	{name: "acquire-csv", args: []string{"acquire", "-freqs", "2400", "-workloads", "compute,md", "-o", "data.csv"}},
	{name: "acquire-unknown-event", args: []string{"acquire", "-events", "NOPE"}},

	{name: "estimate-train", args: []string{"estimate", "-train", "model.json"}, pin: []string{"model.json"}},
	{name: "estimate-model", args: []string{"estimate", "-model", "model.json", "data.csv"}},
	{name: "estimate-usage", args: []string{"estimate"}},
	// Each row the daemon refuses stops estimate at its CSV line.
	{name: "estimate-freq-zero", setup: editCSV("freq-zero.csv", 3, "freq_mhz", "0"),
		args: []string{"estimate", "-model", "model.json", "freq-zero.csv"}},
	{name: "estimate-freq-fraction", setup: editCSV("freq-fraction.csv", 3, "freq_mhz", "2400.7"),
		args: []string{"estimate", "-model", "model.json", "freq-fraction.csv"}},
	{name: "estimate-voltage-nan", setup: editCSV("voltage-nan.csv", 4, "voltage_v", "NaN"),
		args: []string{"estimate", "-model", "model.json", "voltage-nan.csv"}},
	{name: "estimate-rate-negative", setup: editCSV("rate-negative.csv", 5, "PAPI_TOT_CYC", "-5e9"),
		args: []string{"estimate", "-model", "model.json", "rate-negative.csv"}},
	{name: "estimate-non-finite", setup: editCSV("voltage-overflow.csv", 10, "voltage_v", "1e200"),
		args: []string{"estimate", "-model", "model.json", "voltage-overflow.csv"}},
	// So does a power label the daemon refuses.
	{name: "estimate-power-nan", setup: editCSV("power-nan.csv", 6, "power_w", "NaN"),
		args: []string{"estimate", "-model", "model.json", "power-nan.csv"}},
	{name: "estimate-power-negative", setup: editCSV("power-negative.csv", 7, "power_w", "-70"),
		args: []string{"estimate", "-model", "model.json", "power-negative.csv"}},

	{name: "traceinfo-gen", args: []string{"traceinfo", "-gen", "demo.trc"}},
	{name: "traceinfo", args: []string{"traceinfo", "demo.trc"}},
	{name: "traceinfo-detect", args: []string{"traceinfo", "-detect", "demo.trc"}},
	{name: "traceinfo-usage", args: []string{"traceinfo"}},
	// An archive whose definition section declares 2^63−1 locations.
	{name: "traceinfo-hostile", setup: func(t *testing.T, dir string) {
		writeFile(t, filepath.Join(dir, "hostile.trc"), binary.AppendUvarint([]byte("PMCTRC.1"), 1<<63-1))
	}, args: []string{"traceinfo", "hostile.trc"}},

	{name: "powermodel-verbose", args: []string{"powermodel", "-verbose"}},
	// The trace's timings vary; its span counts at a fixed -j do not.
	{name: "powermodel-trace", args: []string{"powermodel", "-counters", "3", "-folds", "5", "-j", "2", "-trace", "t.json"}},
	{name: "tracecheck", args: []string{"tracecheck", "-require", "powermodel,acquire,selection,fit,cv,cv-fold,parallel.worker", "t.json"}},

	{name: "expreport", args: []string{"expreport"}},
	{name: "expreport-table1", args: []string{"expreport", "-exp", "table1"}},
	// An unknown id is refused before the pipeline runs.
	{name: "expreport-unknown-exp", args: []string{"expreport", "-exp", "nosuch"}},
	// The shared pipeline runs under expreport's root span.
	{name: "expreport-trace", args: []string{"expreport", "-exp", "table2", "-j", "2", "-trace", "e.json"}},
	{name: "tracecheck-expreport", args: []string{"tracecheck", "-require", "expreport,exp:table2,acquire,selection,cv,cv-fold", "e.json"}},

	{name: "quickstart", args: []string{"quickstart"}},
	{name: "dvfs_sweep", args: []string{"dvfs_sweep"}},
	{name: "online_monitor", args: []string{"online_monitor"}},
	{name: "percore_power", args: []string{"percore_power"}},
}

func TestProgramsGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		// The golden outputs print fitted coefficients and estimates,
		// whose last digits move where the compiler fuses multiply-adds.
		t.Skipf("golden outputs are captured on linux/amd64; %s/%s may fuse multiply-adds", runtime.GOOS, runtime.GOARCH)
	}
	pkgs := programPackages(t)

	// The runs need neither the symbol table nor DWARF; leaving them
	// out (-s -w) cuts the link of the programs by about a third.
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-ldflags=-s -w", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	dir := t.TempDir()
	for _, r := range programRuns {
		if r.setup != nil {
			r.setup(t, dir)
		}
		got := r.transcript(t, bin, dir)
		path := filepath.Join("testdata", "programs", r.name+".golden")
		if *update {
			writeFile(t, path, got)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (run with -update to create it)", r.name, err)
			continue
		}
		if line, g, w := firstDiff(got, want); line > 0 {
			t.Errorf("%s differs from %s at line %d:\n got: %q\nwant: %q", r.name, path, line, g, w)
		}
	}
	if !*update {
		checkNoStaleGoldens(t)
	}
}

// programPackages returns the package path of every main package under
// cmd/ and examples/ except notRun's, and fails t unless each is run
// and each run's program is among them.
func programPackages(t *testing.T) []string {
	t.Helper()
	var mains []string
	for _, pattern := range []string{"cmd/*/main.go", "examples/*/main.go"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		mains = append(mains, m...)
	}
	run := map[string]bool{}
	for _, r := range programRuns {
		run[r.args[0]] = true
	}
	var pkgs []string
	built := map[string]bool{}
	for _, m := range mains {
		dir := filepath.Dir(m)
		name := filepath.Base(dir)
		if _, ok := notRun[name]; ok {
			continue
		}
		if !run[name] {
			t.Errorf("%s: no run in programRuns pins its output; add one, or delete the program", dir)
		}
		built[name] = true
		pkgs = append(pkgs, "./"+filepath.ToSlash(dir))
	}
	for name := range run {
		if !built[name] {
			t.Errorf("programRuns runs %s, which is not a program under cmd/ or examples/", name)
		}
	}
	return pkgs
}

// transcript runs r in dir and renders what the golden file holds: the
// command line, the exit status, stdout, stderr and each pinned file.
func (r programRun) transcript(t *testing.T, bin, dir string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, r.args[0]), r.args[1:]...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) || ctx.Err() != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		code = exit.ExitCode()
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "$ %s\nexit status %d\n--- stdout\n%s--- stderr\n%s", strings.Join(r.args, " "), code, &stdout, &stderr)
	for _, name := range r.pin {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&b, "--- %s\n%s", name, data)
	}
	return b.Bytes()
}

// editCSV returns a setup that copies data.csv to name with the given
// column of the given line (the header is line 1) set to value.
func editCSV(name string, line int, column, value string) func(*testing.T, string) {
	return func(t *testing.T, dir string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "data.csv"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		col := -1
		for i, h := range recs[0] {
			if h == column {
				col = i
			}
		}
		if col < 0 || line > len(recs) {
			t.Fatalf("%s: data.csv has no column %q or no line %d", name, column, line)
		}
		recs[line-1][col] = value
		var out bytes.Buffer
		w := csv.NewWriter(&out)
		if err := w.WriteAll(recs); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, name), out.Bytes())
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// firstDiff returns the first line (counting from 1) at which got and
// want differ, with both versions of it, or 0 when they are equal.
func firstDiff(got, want []byte) (line int, g, w string) {
	gl, wl := strings.SplitAfter(string(got), "\n"), strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w = "(end of output)", "(end of output)"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}

// checkNoStaleGoldens fails t on a golden file no run writes.
func checkNoStaleGoldens(t *testing.T) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range programRuns {
		names[r.name] = true
	}
	for _, f := range files {
		if !names[strings.TrimSuffix(filepath.Base(f), ".golden")] {
			t.Errorf("%s: no run writes it; delete it", f)
		}
	}
}
