// DVFS sweep: train the Equation-1 model across all five P-states and
// examine how accuracy holds up per frequency and per workload — the
// view behind the paper's Figure 3, plus a leave-one-frequency-out
// interpolation test that a per-frequency baseline cannot pass.
//
// Run with: go run ./examples/dvfs_sweep
package main

import (
	"fmt"
	"log"
	"strings"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/cpusim"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
	"pmcpower/internal/workloads"
)

func main() {
	var events []pmu.EventID
	for _, name := range []string{"LST_INS", "STL_CCY", "L3_TCM", "TOT_CYC", "BR_UCN", "BR_TKN"} {
		events = append(events, pmu.MustByName(name).ID)
	}
	platform := cpusim.HaswellEP()
	freqs := platform.Frequencies()

	ds, err := acquisition.Acquire(acquisition.Options{Seed: 42, Events: events},
		workloads.Active(), freqs)
	if err != nil {
		log.Fatal(err)
	}

	// Cross-validated accuracy per DVFS state.
	cv, err := core.CrossValidateP(ds.Rows, events, 10, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	perFreq := map[int][]float64{}
	for _, p := range cv.Predictions {
		perFreq[p.Row.FreqMHz] = append(perFreq[p.Row.FreqMHz], p.APE())
	}
	fmt.Println("10-fold CV accuracy per DVFS state:")
	for _, f := range freqs {
		m := stats.Mean(perFreq[f])
		fmt.Printf("  %4d MHz  MAPE %5.2f%%  %s\n", f, m, strings.Repeat("#", int(m*2+0.5)))
	}

	// Leave-one-frequency-out: train on four P-states, predict the
	// fifth. The V²f/V terms of Equation 1 make this interpolation
	// work — a per-frequency model has no mechanism for it.
	fmt.Println("\nleave-one-frequency-out interpolation:")
	for _, hold := range freqs {
		train := ds.Filter(func(r *acquisition.Row) bool { return r.FreqMHz != hold })
		test := ds.AtFrequency(hold)
		m, err := core.Train(train.Rows, events, core.TrainOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  hold out %4d MHz: MAPE %5.2f%% on %d unseen experiments\n",
			hold, m.MAPE(test.Rows), len(test.Rows))
	}

	// Power landscape of one workload across the sweep.
	fmt.Println("\nmeasured node power for 24-thread workloads across the sweep:")
	fmt.Printf("  %-14s", "workload")
	for _, f := range freqs {
		fmt.Printf(" %6d", f)
	}
	fmt.Println(" (MHz)")
	for _, name := range []string{"compute", "addpd", "swim", "md", "idle"} {
		fmt.Printf("  %-14s", name)
		for _, f := range freqs {
			for _, r := range ds.Rows {
				if r.Workload == name && r.FreqMHz == f && r.Threads == 24 {
					fmt.Printf(" %5.0fW", r.PowerW)
				}
			}
		}
		fmt.Println()
	}
}
