// Online monitor: the paper's motivating use case — "accurate
// real-time power information for efficient power management". A
// trained Equation-1 model is deployed as a core.StreamSession fed by
// apapi-style counter samples from a live (simulated) run: smoothed
// watts per sample and a Bellosa-style integrated energy. The energy
// is compared against the reference instrumentation at the end, and
// the program exits non-zero when it is off by more than 10 %.
//
// Run with: go run ./examples/online_monitor
package main

import (
	"fmt"
	"log"
	"math"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/cpusim"
	"pmcpower/internal/metricplugin"
	"pmcpower/internal/pmu"
	"pmcpower/internal/power"
	"pmcpower/internal/rng"
	"pmcpower/internal/workloads"
)

func main() {
	var events []pmu.EventID
	for _, name := range []string{"LST_INS", "STL_CCY", "L3_TCM", "TOT_CYC", "BR_UCN", "BR_TKN"} {
		events = append(events, pmu.MustByName(name).ID)
	}

	// Train once, offline.
	ds, err := acquisition.Acquire(acquisition.Options{Seed: 42, Events: events},
		workloads.Active(), []int{1200, 1600, 2000, 2400, 2600})
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Train(ds.Rows, events, core.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed model: %s\n\n", model)

	// "Live" run: the node executes a sequence of workload phases; an
	// apapi sampler delivers counter rates at 10 Hz; the stream session
	// turns each sample into watts and integrates them into joules.
	platform := cpusim.HaswellEP()
	exec := cpusim.NewExecutor(platform)
	gtModel := power.DefaultModel()
	set, err := pmu.NewEventSet(events...)
	if err != nil {
		log.Fatal(err)
	}
	sampler, err := metricplugin.NewApapiPlugin(set)
	if err != nil {
		log.Fatal(err)
	}

	session, err := core.NewStreamSession(model, 0.3)
	if err != nil {
		log.Fatal(err)
	}

	schedule := []struct {
		workload string
		threads  int
		freq     int
		secs     float64
	}{
		{"idle", 1, 1200, 2},
		{"compute", 24, 2400, 3},
		{"memory_read", 24, 2400, 3},
		{"md", 24, 2600, 3},
		{"addpd", 24, 2600, 2},
		{"idle", 1, 1200, 2},
	}

	fmt.Printf("%-6s %-12s %6s %6s | %10s %10s %10s\n",
		"t[s]", "phase", "thr", "MHz", "truth[W]", "inst[W]", "ewma[W]")
	rnd := rng.New(99)
	now := uint64(0)
	var trueJ float64
	for pi, ph := range schedule {
		act, err := exec.Execute(cpusim.RunConfig{
			Workload:  workloads.MustByName(ph.workload),
			FreqMHz:   ph.freq,
			Threads:   ph.threads,
			DurationS: ph.secs,
		}, rnd.Split(uint64(pi)))
		if err != nil {
			log.Fatal(err)
		}
		gt, err := gtModel.NodePower(platform, act)
		if err != nil {
			log.Fatal(err)
		}
		truth := gt.TotalW
		trueJ += truth * ph.secs

		end := now + uint64(ph.secs*1e9)
		iv := &metricplugin.Interval{
			StartNs:  now,
			EndNs:    end,
			Activity: act,
			Platform: platform,
			Ticks:    metricplugin.Ticks(nil, now, end, 10),
			Cores:    metricplugin.ActiveCores(nil, platform, act),
			Rand:     rnd.Split(uint64(1000 + pi)),
		}
		values, err := sampler.Sample(nil, iv)
		if err != nil {
			log.Fatal(err)
		}
		// Turn each tick's values (by event, then by core) into a
		// CounterSample. The sampler reads every active core
		// separately, so a node rate is the sum over cores.
		ids := set.Events()
		var lastEst core.StreamEstimate
		for _, tick := range iv.Ticks {
			rates := make(map[pmu.EventID]float64, len(ids))
			for _, id := range ids {
				for range iv.Cores {
					rates[id] += values[0]
					values = values[1:]
				}
			}
			lastEst, err = session.Push(core.CounterSample{
				TimeNs:   tick,
				Rates:    rates,
				VoltageV: act.CoreVoltageV,
				FreqMHz:  ph.freq,
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%-6.1f %-12s %6d %6d | %10.1f %10.1f %10.1f\n",
			float64(now)/1e9, ph.workload, ph.threads, ph.freq,
			truth, lastEst.InstantW, lastEst.SmoothedW)
		now = end
	}

	estJ, samples := session.Totals()
	errPct := (estJ - trueJ) / trueJ * 100
	fmt.Printf("\nenergy over %d s: reference %.0f J, estimated %.0f J (error %+.1f%%)\n",
		int(float64(now)/1e9), trueJ, estJ, errPct)
	fmt.Printf("samples processed: %d\n", samples)
	if math.Abs(errPct) > 10 {
		log.Fatalf("energy error %+.1f%% exceeds ±10%%", errPct)
	}
}
