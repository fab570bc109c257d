// Command traceinfo inspects trace archives: definitions, event
// counts, metric statistics and phase structure. It can also generate
// a demonstration archive by tracing one simulated workload run.
//
// Usage:
//
//	traceinfo -gen demo.trc [-workload compute] [-freq 2400]
//	traceinfo demo.trc
//	traceinfo -detect demo.trc   # segment the power signal without
//	                             # using the instrumentation (HAEC-SIM
//	                             # style phase detection)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/buildinfo"
	"pmcpower/internal/phasedetect"
	"pmcpower/internal/phaseprofile"
	"pmcpower/internal/trace"
	"pmcpower/internal/workloads"
)

func main() {
	gen := flag.String("gen", "", "generate a demo archive at this path instead of reading one")
	wlName := flag.String("workload", "compute", "workload to trace with -gen")
	freq := flag.Int("freq", 2400, "core frequency in MHz for -gen")
	detect := flag.Bool("detect", false, "segment the power signal instead of listing phases")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Format("traceinfo"))
		return
	}

	if *gen != "" {
		if err := generate(*gen, *wlName, *freq); err != nil {
			fmt.Fprintln(os.Stderr, "traceinfo:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo [-gen out.trc] [-detect] <archive.trc>")
		os.Exit(2)
	}
	var err error
	if *detect {
		err = detectPhases(flag.Arg(0))
	} else {
		err = inspect(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}

// detectPhases segments the archive's power signal with
// internal/phasedetect and compares the result against the
// instrumented Enter/Leave boundaries.
func detectPhases(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	defs := r.Definitions()
	isPower := map[trace.Ref]bool{}
	for _, m := range defs.Metrics {
		if phaseprofile.IsPowerMetric(m.Name) {
			isPower[m.Ref] = true
		}
	}
	if len(isPower) == 0 {
		return fmt.Errorf("archive has no power channel")
	}
	// Sum the per-socket channels per timestamp into one node signal.
	sums := map[uint64]float64{}
	var order []uint64
	instrumented := 0
	for {
		ev, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if ev.Kind == trace.KindEnter {
			instrumented++
		}
		if ev.Kind == trace.KindMetric && isPower[ev.Metric] {
			if _, ok := sums[ev.TimeNs]; !ok {
				order = append(order, ev.TimeNs)
			}
			sums[ev.TimeNs] += ev.Value
		}
	}
	samples := make([]phasedetect.Sample, 0, len(order))
	for _, tNs := range order {
		samples = append(samples, phasedetect.Sample{TimeNs: tNs, Value: sums[tNs]})
	}
	segs, err := phasedetect.Detect(samples)
	if err != nil {
		return err
	}
	fmt.Printf("power signal: %d samples; instrumented phases: %d; detected segments: %d\n",
		len(samples), instrumented, len(segs))
	for i, seg := range segs {
		fmt.Printf("  segment %2d  [%7.3f s, %7.3f s)  %6.1f W ± %.2f W  (%d samples)\n",
			i+1, float64(seg.StartNs)/1e9, float64(seg.EndNs)/1e9, seg.Mean, seg.Std, seg.N)
	}
	return nil
}

func generate(path, wlName string, freq int) error {
	wl, err := workloads.ByName(wlName)
	if err != nil {
		return err
	}
	// Trace a single multiplexed run campaign for one workload and
	// frequency; keep the first produced archive.
	var captured []byte
	var capturedName string
	opts := acquisition.Options{
		Seed: 42,
		TraceSink: func(name string, data []byte) {
			if captured == nil {
				captured = append([]byte(nil), data...)
				capturedName = name
			}
		},
	}
	if _, err := acquisition.Acquire(opts, []*workloads.Workload{wl}, []int{freq}); err != nil {
		return err
	}
	if captured == nil {
		return fmt.Errorf("no trace produced")
	}
	if err := os.WriteFile(path, captured, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, run %s)\n", path, len(captured), capturedName)
	return nil
}

func inspect(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	defs := r.Definitions()
	fmt.Printf("archive: %s\n", path)
	fmt.Printf("locations: %d\n", len(defs.Locations))
	for _, l := range defs.Locations {
		fmt.Printf("  [%d] %s\n", l.Ref, l.Name)
	}
	fmt.Printf("regions: %d\n", len(defs.Regions))
	for _, reg := range defs.Regions {
		fmt.Printf("  [%d] %s\n", reg.Ref, reg.Name)
	}
	fmt.Printf("metrics: %d\n", len(defs.Metrics))
	for _, m := range defs.Metrics {
		fmt.Printf("  [%d] %-24s unit=%-9s mode=%s\n", m.Ref, m.Name, m.Unit, m.Mode)
	}

	var enters, leaves, metrics uint64
	var firstNs, lastNs uint64
	first := true
	for {
		ev, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if first {
			firstNs = ev.TimeNs
			first = false
		}
		lastNs = ev.TimeNs
		switch ev.Kind {
		case trace.KindEnter:
			enters++
		case trace.KindLeave:
			leaves++
		case trace.KindMetric:
			metrics++
		}
	}
	fmt.Printf("events: %d enter, %d leave, %d metric samples\n", enters, leaves, metrics)
	fmt.Printf("time span: %.3f s\n", float64(lastNs-firstNs)/1e9)

	// Phase-profile view (re-read the archive).
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	phases, err := phaseprofile.FromTrace(f, path)
	if err != nil {
		return err
	}
	fmt.Printf("phase profiles: %d\n", len(phases))
	for _, ph := range phases {
		fmt.Printf("  %-24s threads=%-2d f=%d MHz  %.2fs  P=%.1f W  V=%.3f V  (%d PMC rates)\n",
			ph.Region, ph.Threads, ph.FreqMHz, ph.DurationS(), ph.PowerW, ph.VoltageV, len(ph.Rates))
	}
	return nil
}
