// Command estimate is the deployment side of the workflow: it trains
// (or loads) an Equation-1 model and estimates power for counter
// samples supplied as CSV — the format cmd/acquire exports.
//
// Usage:
//
//	estimate -train model.json            # calibrate and save a model
//	estimate -model model.json data.csv   # estimate power for CSV rows
//
// The CSV must contain freq_mhz and voltage_v columns plus one column
// per model event (PAPI names, rates in events/second) — exactly what
// cmd/acquire emits. A power_w column, when present, is used to report
// the estimation error. A row the daemon would refuse as a sample (a
// frequency that is not a positive integer, a voltage that is not
// finite and positive, a model event rate that is negative or not
// finite) or as a power label (a power_w that is not finite and
// positive), or whose estimate is not finite, stops estimate with the
// row's CSV line and exit status 1.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"pmcpower/internal/buildinfo"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
	"pmcpower/internal/stats"
)

func main() {
	train := flag.String("train", "", "calibrate a model on the simulated platform and write it to this path")
	modelPath := flag.String("model", "", "trained model JSON to load")
	seed := flag.Uint64("seed", 42, "calibration seed for -train")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Format("estimate"))
		return
	}

	if err := run(*train, *modelPath, *seed, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "estimate:", err)
		os.Exit(1)
	}
}

func run(trainPath, modelPath string, seed uint64, args []string) error {
	if trainPath != "" {
		return calibrate(trainPath, seed)
	}
	if modelPath == "" || len(args) != 1 {
		return fmt.Errorf("usage: estimate -train model.json | estimate -model model.json data.csv")
	}
	return estimate(modelPath, args[0])
}

func calibrate(outPath string, seed uint64) error {
	// Counter selection followed by full-range training — the
	// expensive, once-per-platform step.
	m, err := core.Calibrate(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "selected counters: %v\n", pmu.ShortNames(m.Events))
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "model written to %s (R²=%.4f on %d experiments)\n", outPath, m.R2(), m.Fit.N)
	return nil
}

func estimate(modelPath, csvPath string) error {
	mf, err := os.Open(modelPath)
	if err != nil {
		return err
	}
	defer mf.Close()
	m, err := core.ReadJSON(mf)
	if err != nil {
		return err
	}

	df, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	defer df.Close()
	cr := csv.NewReader(df)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("reading CSV header: %w", err)
	}
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	for _, need := range []string{"freq_mhz", "voltage_v"} {
		if _, ok := col[need]; !ok {
			return fmt.Errorf("CSV lacks required column %q", need)
		}
	}
	for _, id := range m.Events {
		if _, ok := col[pmu.Lookup(id).Name]; !ok {
			return fmt.Errorf("CSV lacks model event column %q", pmu.Lookup(id).Name)
		}
	}
	_, hasPower := col["power_w"]
	wlCol, hasWorkload := col["workload"]

	fmt.Printf("%-16s %9s %9s", "workload", "freq_mhz", "est_w")
	if hasPower {
		fmt.Printf(" %9s %8s", "actual_w", "err%%"[:4])
	}
	fmt.Println()

	var actual, predicted []float64
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("CSV line %d: %w", line, err)
		}
		get := func(name string) (float64, error) {
			v, err := strconv.ParseFloat(rec[col[name]], 64)
			if err != nil {
				return 0, fmt.Errorf("CSV line %d, column %s: %w", line, name, err)
			}
			return v, nil
		}
		freq, err := strconv.Atoi(rec[col["freq_mhz"]])
		if err != nil {
			return fmt.Errorf("CSV line %d, column freq_mhz: %w", line, err)
		}
		volt, err := get("voltage_v")
		if err != nil {
			return err
		}
		cs := core.CounterSample{FreqMHz: freq, VoltageV: volt, Rates: map[pmu.EventID]float64{}}
		for _, id := range m.Events {
			v, err := get(pmu.Lookup(id).Name)
			if err != nil {
				return err
			}
			cs.Rates[id] = v
		}
		// The daemon's sample rule.
		est, err := m.Estimate(cs)
		if err != nil {
			return fmt.Errorf("CSV line %d: %w", line, err)
		}
		var act float64
		if hasPower {
			if act, err = get("power_w"); err != nil {
				return err
			}
			if err := core.CheckPower(act); err != nil {
				return fmt.Errorf("CSV line %d: %w", line, err)
			}
		}
		name := "-"
		if hasWorkload {
			name = rec[wlCol]
		}
		fmt.Printf("%-16s %9d %9.1f", name, freq, est)
		if hasPower {
			actual = append(actual, act)
			predicted = append(predicted, est)
			fmt.Printf(" %9.1f %+7.1f%%", act, (est-act)/act*100)
		}
		fmt.Println()
	}
	if hasPower && len(actual) > 0 {
		ape, err := stats.APEDetail(actual, predicted)
		if err != nil {
			return fmt.Errorf("computing MAPE: %w", err)
		}
		fmt.Printf("\nMAPE over %d rows: %.2f%%\n", ape.Used, ape.MAPE)
		if ape.Skipped > 0 {
			fmt.Printf("warning: %d rows excluded (near-zero actual power)\n", ape.Skipped)
		}
	}
	return nil
}
