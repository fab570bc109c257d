package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"pmcpower/internal/core"
	"pmcpower/internal/rng"
)

// streamWorkload is one traffic mix against the real daemon. The
// request counts and the offered rate are frozen: they were sized on
// the reference machine at the commit that introduced the bench (see
// README), so a faster daemon gets the same work, not more of it.
type streamWorkload struct {
	name     string
	sessions int
	batch    int // samples per POST
	// refit, when non-zero, labels every sample with power_w and opens
	// sessions with ?refit=refit.
	refit int
	// warmupRounds is how many requests each session sends before
	// anything is timed (creating the sessions).
	warmupRounds int
	// closedRate is the closed-loop request count per measured second;
	// the closed blocks send closedRate·seconds·closedShare requests.
	closedRate float64
	// openRate is the open loop's offered Poisson rate in requests/s,
	// about 15 % of the closed-loop throughput on the reference
	// machine: low enough that the machine halving its speed for a
	// while (other tenants) does not push the daemon into queueing.
	openRate float64
}

// closedShare is the part of the measured seconds the closed loop is
// sized for; the open loop runs for the rest.
const closedShare = 1.0 / 3

// cyclesPerSecond is how many closed-then-open cycles each measured
// second is split into. The machine's speed drifts over seconds (other
// tenants), so both loops are spread over the whole run in short
// blocks rather than each measured in one stretch of it, and the
// throughput median is taken over many blocks.
const cyclesPerSecond = 4

// streamWorkloads has no one-sample-per-request workload: its
// round-trip timings measure the shared machine's scheduler, not the
// daemon (see README).
var streamWorkloads = []streamWorkload{
	{name: "stream-batch", sessions: 64, batch: 200, warmupRounds: 4, closedRate: 1300, openRate: 200},
	{name: "stream-refit", sessions: 32, batch: 50, refit: 128, warmupRounds: 8, closedRate: 2400, openRate: 400},
}

// checkedSessions are replayed in process after every stream run; two
// sit on each connection.
var checkedSessions = map[int]bool{0: true, 1: true, 2: true, 3: true}

// connections is the number of keep-alive connections the load uses.
const connections = 2

func streamByName(name string) (streamWorkload, bool) {
	for _, w := range streamWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return streamWorkload{}, false
}

func (w streamWorkload) query() string {
	if w.refit > 0 {
		return "&refit=" + strconv.Itoa(w.refit)
	}
	return ""
}

// newSessions generates the workload's sessions for the run's seed.
func (w streamWorkload) newSessions(cfg *config) []*session {
	out := make([]*session, w.sessions)
	for i := range out {
		out[i] = newSession(cfg.seed, w.name, i, cfg.scaled(payloadsPerSession), w.refit > 0, cfg.cal)
	}
	return out
}

// openSchedule returns each connection's Poisson send offsets over d
// at the workload's offered rate for one open block, seeded by (seed,
// workload, block, connection).
func (w streamWorkload) openSchedule(seed uint64, block int, d time.Duration) [][]time.Duration {
	perConn := w.openRate / connections
	sched := make([][]time.Duration, connections)
	for c := range sched {
		r := rng.Stream(seed^rng.HashString(w.name+"/open"), uint64(block*connections+c))
		t := 0.0
		for {
			t += -math.Log(1-r.Float64()) / perConn
			if t >= d.Seconds() {
				break
			}
			sched[c] = append(sched[c], time.Duration(t*float64(time.Second)))
		}
	}
	return sched
}

// runStream runs one stream workload end to end against a fresh
// daemon: set-up timed setupRuns times, warmup, the measured cycles,
// then the correctness checks. A traced run adds the per-layer ladder
// before the daemon stops.
func runStream(cfg *config, w streamWorkload) (*result, error) {
	res := newResult(w.name)
	n := cfg.scaled(setupRuns)
	setups := make([]float64, 0, n)
	var d *daemon
	for i := 0; i < n; i++ {
		dd, took, err := startDaemon(cfg.daemonBin, cfg.work)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < n-1 {
			if err := dd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	defer d.stop()
	if err := checkModels(d.base, cfg.cal); err != nil {
		res.check(err)
		return res, d.stop()
	}

	sessions := w.newSessions(cfg)
	conns := newConns(connections, d.base, w.query(), sessions, w.batch, checkedSessions)
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	pid := d.pid()

	// Warmup: every session sends warmupRounds requests, untimed.
	runClosed(conns, cfg.scaled(w.warmupRounds)*w.sessions/connections)

	st, err := runCycles(conns, pid, w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	hwm, err := procMemKB(pid, "VmHWM")
	if err != nil {
		return nil, err
	}

	for _, c := range conns {
		res.Attempted += c.attempted
		res.Failed += c.failed
		res.Failures = append(res.Failures, c.errs...)
	}
	counters, err := scrapeMetrics(d.base, "pmcpowerd_samples_rejected_total", "pmcpowerd_shed_total",
		"pmcpowerd_refits_total", "pmcpowerd_refit_rebuilds_total")
	if err != nil {
		return nil, err
	}
	if n := counters["pmcpowerd_samples_rejected_total"]; n != 0 {
		res.check(fmt.Errorf("daemon rejected %v samples", n))
	}
	if n := counters["pmcpowerd_shed_total"]; n != 0 {
		res.check(fmt.Errorf("daemon shed %v requests", n))
	}
	if err := replayChecked(conns, cfg.cal, w.refit); err != nil {
		res.check(err)
	}

	var lat, late, stalled []float64
	openSamples := 0
	for _, r := range st.open {
		lat = append(lat, r.latency)
		late = append(late, r.late)
		stalled = append(stalled, r.stalled)
		if r.ok {
			openSamples += w.batch
		}
	}
	for _, v := range [][]float64{lat, late, stalled} {
		sort.Float64s(v)
	}
	res.set("setup_s", median(setups))
	res.set("throughput_sps", median(st.closedSPS))
	res.set("latency_p50_ms", quantile(lat, 0.50)*1e3)
	res.set("latency_p99_ms", quantile(lat, 0.99)*1e3)
	res.set("latency_samples", float64(len(lat)))
	if openSamples > 0 {
		res.set("cpu_us_per_sample", st.openCPU.Seconds()/float64(openSamples)*1e6)
	}
	res.set("max_rss_mb", hwm/1024)
	res.setSteal(st.stealPct)
	res.set("bench.late_p99_ms", quantile(late, 0.99)*1e3)
	res.set("bench.backlog_max", float64(st.backlogMax))
	res.set("serve.cpu_s", st.closedCPU.Seconds())
	res.set("serve.rss_kb_per_kreq", st.rssGrowthKB/float64(st.requests)*1000)
	res.set("serve.rejected", counters["pmcpowerd_samples_rejected_total"])
	res.set("serve.shed", counters["pmcpowerd_shed_total"])
	res.set("core.refit_rebuild_ratio",
		counters["pmcpowerd_refit_rebuilds_total"]/math.Max(counters["pmcpowerd_refits_total"], 1))
	if p99 := quantile(stalled, 0.99) * 1e3; p99 > 1 {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"the generator itself sent late: p99 %.3f ms > 1 ms after a request could go; latency is suspect", p99))
	}

	if cfg.tracer != nil {
		if err := runLadder(cfg, w, d, res); err != nil {
			return nil, err
		}
	}
	return res, d.stop()
}

// cycleStats is what the measured cycles gave: each closed block's
// accepted samples/s and the daemon's CPU over the closed blocks;
// every open-loop request and the daemon's CPU over the open blocks;
// the daemon's RSS growth over all cycles with the requests sent in
// them; and the machine's steal over the cycles.
type cycleStats struct {
	closedSPS   []float64
	closedCPU   time.Duration
	open        []openRequest
	openCPU     time.Duration
	backlogMax  int
	rssGrowthKB float64
	requests    int
	stealPct    float64
}

// runCycles runs the measured part of a stream workload: cycles times
// a closed block (a fixed request count, each connection sending its
// next request as soon as the previous response is in) followed by an
// open block (seeded Poisson arrivals at the fixed offered rate).
func runCycles(conns []*conn, pid int, w streamWorkload, seed uint64, seconds float64) (cycleStats, error) {
	var st cycleStats
	cycles := max(1, int(math.Round(cyclesPerSecond*seconds)))
	perConn := max(1, int(math.Round(w.closedRate*seconds*closedShare/float64(cycles)/connections)))
	openDur := time.Duration(seconds * (1 - closedShare) / float64(cycles) * float64(time.Second))
	rss0, err := procMemKB(pid, "VmRSS")
	if err != nil {
		return st, err
	}
	ticks0, err := readCPUTicks()
	if err != nil {
		return st, err
	}
	sent0 := 0
	for _, c := range conns {
		sent0 += c.attempted
	}
	for b := 0; b < cycles; b++ {
		before := accepted(conns)
		cpu0, err := procCPU(pid)
		if err != nil {
			return st, err
		}
		wall := runClosed(conns, perConn)
		cpu1, err := procCPU(pid)
		if err != nil {
			return st, err
		}
		st.closedSPS = append(st.closedSPS, float64(accepted(conns)-before)/wall.Seconds())
		st.closedCPU += cpu1 - cpu0

		reqs, backlog, err := runOpen(conns, w.openSchedule(seed, b, openDur), time.Now().Add(5*time.Millisecond))
		if err != nil {
			return st, err
		}
		cpu2, err := procCPU(pid)
		if err != nil {
			return st, err
		}
		st.openCPU += cpu2 - cpu1
		st.open = append(st.open, reqs...)
		st.backlogMax = max(st.backlogMax, backlog)
	}
	ticks1, err := readCPUTicks()
	if err != nil {
		return st, err
	}
	st.stealPct = stealPct(ticks0, ticks1)
	rss1, err := procMemKB(pid, "VmRSS")
	if err != nil {
		return st, err
	}
	st.rssGrowthKB = rss1 - rss0
	for _, c := range conns {
		st.requests += c.attempted
	}
	st.requests -= sent0
	return st, nil
}

func accepted(conns []*conn) int {
	n := 0
	for _, c := range conns {
		n += c.samples
	}
	return n
}

// wireRow is the subset of an estimate row the replay compares.
type wireRow struct {
	TimeNs       uint64  `json:"time_ns"`
	InstantW     float64 `json:"instant_w"`
	SmoothedW    float64 `json:"smoothed_w"`
	TotalJ       float64 `json:"total_j"`
	ModelVersion uint64  `json:"model_version"`
}

// replayChecked pushes every sample the checked sessions sent through
// an in-process core session built on the bench's own calibration and
// requires every estimate field the daemon returned to match bit for
// bit.
func replayChecked(conns []*conn, cal *calibration, refit int) error {
	for _, c := range conns {
		for _, s := range c.sessions {
			log, ok := c.checked[s.id]
			if !ok {
				continue
			}
			if err := replaySession(s, log, cal, refit); err != nil {
				return fmt.Errorf("replay of %s: %w", s.name, err)
			}
		}
	}
	return nil
}

func replaySession(s *session, log []sentRequest, cal *calibration, refit int) error {
	ss, err := core.NewStreamSessionRefit(cal.model, 1, refit)
	if err != nil {
		return err
	}
	if len(log) == 0 {
		return errors.New("no responses recorded")
	}
	for _, req := range log {
		body := req.body
		for k := 0; k < req.n; k++ {
			var line []byte
			line, body, _ = bytes.Cut(body, []byte{'\n'})
			var got wireRow
			if err := json.Unmarshal(line, &got); err != nil {
				return err
			}
			cs, powerW := s.counterSample(req.first+k, cal.events)
			var want core.StreamEstimate
			if refit > 0 {
				want, err = ss.PushLabeled(cs, powerW)
			} else {
				want, err = ss.Push(cs)
			}
			if err != nil {
				return err
			}
			if got.TimeNs != want.TimeNs || got.ModelVersion != want.ModelVersion ||
				!sameBits(got.InstantW, want.InstantW) || !sameBits(got.SmoothedW, want.SmoothedW) ||
				!sameBits(got.TotalJ, want.TotalJoules) {
				return fmt.Errorf("sample %d: daemon %+v, in-process %+v", req.first+k, got, want)
			}
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
