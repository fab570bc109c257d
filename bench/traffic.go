package main

import (
	"fmt"
	"strconv"

	"pmcpower/internal/acquisition"
	"pmcpower/internal/core"
	"pmcpower/internal/pmu"
	"pmcpower/internal/rng"
	"pmcpower/internal/workloads"
)

// calibrationSeed is the seed pmcpowerd's -selfcal uses by default.
const calibrationSeed = 42

// pStates are the five operating frequencies of the paper's campaign.
var pStates = []int{1200, 1600, 2000, 2400, 2600}

// calibration is the bench's own copy of the model the daemon
// calibrates at startup, plus the campaign rows the traffic is drawn
// from (real events/s magnitudes, real residuals).
type calibration struct {
	model  *core.Model
	events []pmu.EventID
	names  []string // PAPI names in model order
	pool   []*acquisition.Row
}

// calibrate repeats pmcpowerd's -selfcal flow through the same public
// calls (acquire every counter at 2400 MHz, select six, acquire those
// at all P-states, train), so the result must equal the daemon's model
// bit for bit.
func calibrate() (*calibration, error) {
	selDS, err := acquisition.Acquire(acquisition.Options{Seed: calibrationSeed}, workloads.Active(), []int{2400})
	if err != nil {
		return nil, err
	}
	steps, err := core.SelectEvents(selDS.Rows, core.SelectOptions{Count: 6})
	if err != nil {
		return nil, err
	}
	events := core.Events(steps)
	full, err := acquisition.Acquire(acquisition.Options{Seed: calibrationSeed, Events: events},
		workloads.Active(), pStates)
	if err != nil {
		return nil, err
	}
	m, err := core.Train(full.Rows, events, core.TrainOptions{})
	if err != nil {
		return nil, err
	}
	c := &calibration{model: m, events: events, pool: full.Rows}
	for _, id := range events {
		c.names = append(c.names, pmu.Lookup(id).Name)
	}
	return c, nil
}

// samplePeriodNs is the spacing of a session's sample timestamps: the
// 20 Hz rate of the acquisition campaign's metric plugins.
const samplePeriodNs = 50_000_000

// payloadsPerSession is how many distinct samples a session cycles
// through. Rendering happens once at set-up, so the send loop only
// stamps time_ns and copies bytes.
const payloadsPerSession = 256

// sample is one generated counter sample, in model event order.
type sample struct {
	freqMHz  int
	voltageV float64
	rates    []float64
	powerW   float64
}

// session is one client stream: its generated samples, their NDJSON
// renderings without the leading time_ns field, and the index of the
// next sample to send. Sample j of a session is samples[j % len] at
// time (j+1)·samplePeriodNs, so time_ns rises strictly across every
// phase of a run.
type session struct {
	id       int
	name     string
	samples  []sample
	payloads [][]byte
	next     int
}

// newSession generates session id's traffic as a pure function of
// (seed, workload, id): payloads rows drawn from the calibration
// campaign with uniform ±5 % jitter on every rate and on the power
// label.
func newSession(seed uint64, workload string, id, payloads int, labelled bool, cal *calibration) *session {
	r := rng.Stream(seed^rng.HashString(workload), uint64(id))
	s := &session{id: id, name: fmt.Sprintf("%s-%d", workload, id)}
	for k := 0; k < payloads; k++ {
		row := cal.pool[r.Intn(len(cal.pool))]
		smp := sample{freqMHz: row.FreqMHz, voltageV: row.VoltageV, rates: make([]float64, len(cal.events))}
		for i, id := range cal.events {
			smp.rates[i] = row.Rates[id] * jitter(r)
		}
		smp.powerW = row.PowerW * jitter(r)
		s.samples = append(s.samples, smp)
		s.payloads = append(s.payloads, renderPayload(smp, cal.names, labelled))
	}
	return s
}

func jitter(r *rng.Rand) float64 { return 1 + 0.05*(2*r.Float64()-1) }

// renderPayload renders a sample's NDJSON line after `{"time_ns":N`.
// Floats use the shortest representation that parses back to the same
// float64, so the daemon sees exactly the values the in-process replay
// pushes.
func renderPayload(s sample, names []string, labelled bool) []byte {
	b := []byte(`,"freq_mhz":`)
	b = strconv.AppendInt(b, int64(s.freqMHz), 10)
	b = append(b, `,"voltage_v":`...)
	b = appendFloat(b, s.voltageV)
	b = append(b, `,"rates":{`...)
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, n...)
		b = append(b, `":`...)
		b = appendFloat(b, s.rates[i])
	}
	b = append(b, '}')
	if labelled {
		b = append(b, `,"power_w":`...)
		b = appendFloat(b, s.powerW)
	}
	return append(b, "}\n"...)
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// timeNs is the timestamp of a session's j-th sample.
func timeNs(j int) uint64 { return uint64(j+1) * samplePeriodNs }

// appendBody renders samples first..first+n-1 of s as one NDJSON
// request body.
func (s *session) appendBody(b []byte, first, n int) []byte {
	for j := first; j < first+n; j++ {
		b = append(b, `{"time_ns":`...)
		b = strconv.AppendUint(b, timeNs(j), 10)
		b = append(b, s.payloads[j%len(s.payloads)]...)
	}
	return b
}

// renamed returns a copy of s under another name, rewound to its
// first sample, so a ladder pass can replay the same traffic on a
// fresh daemon session.
func (s *session) renamed(name string) *session {
	c := *s
	c.name, c.next = name, 0
	return &c
}

// counterSample is sample j of s as the core type, for in-process
// replay and the ladder rungs.
func (s *session) counterSample(j int, events []pmu.EventID) (core.CounterSample, float64) {
	smp := s.samples[j%len(s.samples)]
	rates := make(map[pmu.EventID]float64, len(events))
	for i, id := range events {
		rates[id] = smp.rates[i]
	}
	return core.CounterSample{TimeNs: timeNs(j), FreqMHz: smp.freqMHz, VoltageV: smp.voltageV, Rates: rates}, smp.powerW
}
