// Command acquire runs an acquisition campaign and exports the
// regression dataset as CSV — the artifact an analyst would feed into
// external statistics tooling.
//
// Usage:
//
//	acquire [-seed n] [-freqs 1200,2400] [-workloads compute,md]
//	        [-events LST_INS,TOT_CYC] [-o dataset.csv]
//
// Without -events the campaign records all 54 presets.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/buildinfo"
	"pmcpower/internal/cpusim"
	"pmcpower/internal/pmu"
	"pmcpower/internal/workloads"
)

func main() {
	seed := flag.Uint64("seed", 42, "acquisition seed")
	freqsFlag := flag.String("freqs", "", "comma-separated frequencies in MHz (default: all P-states)")
	wlFlag := flag.String("workloads", "", "comma-separated workload names (default: all active)")
	evFlag := flag.String("events", "", "comma-separated PAPI event names (default: all 54 presets)")
	out := flag.String("o", "", "output file (default: stdout)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Format("acquire"))
		return
	}

	if err := run(*seed, *freqsFlag, *wlFlag, *evFlag, *out); err != nil {
		fmt.Fprintln(os.Stderr, "acquire:", err)
		os.Exit(1)
	}
}

func run(seed uint64, freqsFlag, wlFlag, evFlag, out string) error {
	platform := cpusim.HaswellEP()

	freqs := platform.Frequencies()
	if freqsFlag != "" {
		freqs = nil
		for _, tok := range strings.Split(freqsFlag, ",") {
			f, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("bad frequency %q: %w", tok, err)
			}
			freqs = append(freqs, f)
		}
	}

	wls := workloads.Active()
	if wlFlag != "" {
		wls = nil
		for _, tok := range strings.Split(wlFlag, ",") {
			w, err := workloads.ByName(strings.TrimSpace(tok))
			if err != nil {
				return err
			}
			wls = append(wls, w)
		}
	}

	var events []pmu.EventID
	if evFlag != "" {
		seen := make(map[pmu.EventID]bool)
		for _, tok := range strings.Split(evFlag, ",") {
			e, err := pmu.ByName(strings.TrimSpace(tok))
			if err != nil {
				return err
			}
			// Catch duplicates here so the message names the flag rather
			// than surfacing later from run planning.
			if seen[e.ID] {
				return fmt.Errorf("-events lists %s twice", e.Name)
			}
			seen[e.ID] = true
			events = append(events, e.ID)
		}
	}

	ds, err := acquisition.Acquire(acquisition.Options{Seed: seed, Events: events}, wls, freqs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "acquired %d experiments (%d workloads × %d frequencies)\n",
		len(ds.Rows), len(ds.Workloads()), len(freqs))

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return ds.WriteCSV(w)
}
