// Quickstart: acquire a small dataset on the simulated Haswell-EP
// node, train the paper's Equation-1 power model on six counters, and
// estimate the power of an unseen workload.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
	"pmcpower/internal/workloads"
)

func main() {
	// The counters of the paper's methodology: selected once by
	// Algorithm 1 (see `expreport -exp table1`), then reused.
	var events []pmu.EventID
	for _, name := range []string{"LST_INS", "STL_CCY", "L3_TCM", "TOT_CYC", "BR_UCN", "BR_TKN"} {
		events = append(events, pmu.MustByName(name).ID)
	}

	// Acquire training data: every workload except "md" at three DVFS
	// states. The acquisition layer simulates the full Score-P
	// pipeline — multiplexed PMC runs, trace archives, phase-profile
	// post-processing.
	var train []*workloads.Workload
	for _, w := range workloads.Active() {
		if w.Name != "md" {
			train = append(train, w)
		}
	}
	ds, err := acquisition.Acquire(acquisition.Options{Seed: 1, Events: events},
		train, []int{1200, 2000, 2600})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acquired %d experiments over %d workloads\n", len(ds.Rows), len(train))

	// Train Equation 1: P = Σ αₙ·Eₙ·V²f + β·V²f + γ·V + δ.
	model, err := core.Train(ds.Rows, events, core.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s\n\n", model)

	// Estimate the power of the held-out workload at a frequency the
	// model has seen and one it interpolates.
	md := workloads.MustByName("md")
	test, err := acquisition.Acquire(acquisition.Options{Seed: 2, Events: events},
		[]*workloads.Workload{md}, []int{2000, 2400})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("held-out workload md:")
	for _, row := range test.Rows {
		est := model.Predict(row)
		fmt.Printf("  f=%d MHz  measured %6.1f W   estimated %6.1f W   error %+5.1f%%\n",
			row.FreqMHz, row.PowerW, est, (est-row.PowerW)/row.PowerW*100)
	}
}
