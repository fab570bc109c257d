package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// FlightRecorderConfig tunes a FlightRecorder. The zero value is
// usable: every field has a production default.
type FlightRecorderConfig struct {
	// Stages names the per-request stage timing slots (e.g. "parse",
	// "push", "encode"). Every ActiveTrace carries one aggregate
	// counter per stage; AddStages' sums index into this list.
	// Default: no stages.
	Stages []string
	// Retain caps the ring of fully retained traces. Default 64.
	Retain int
	// MinSlow is the absolute floor for slow detection: a request
	// faster than this is never "slow" no matter what the rolling mean
	// says. Default 1s.
	MinSlow time.Duration
	// Now is the clock, injectable for tests. Default time.Now.
	Now func() time.Time
}

const (
	// recentRequests caps the ring of recently-completed request
	// summaries served by /debug/requests.
	recentRequests = 128
	// maxTraceEvents caps the discrete span/log events captured per
	// trace; further events are counted as dropped, never allocated.
	maxTraceEvents = 64
	// A request is slow when its duration exceeds slowFactor × the
	// rolling mean duration, once slowWarmup requests have completed
	// (the rolling mean is meaningless on an empty recorder).
	slowFactor = 4
	slowWarmup = 32
)

func (c FlightRecorderConfig) withDefaults() FlightRecorderConfig {
	if c.Retain <= 0 {
		c.Retain = 64
	}
	if c.MinSlow <= 0 {
		c.MinSlow = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// FlightRecorder is an always-on, bounded, tail-sampled request
// recorder: every request gets an ActiveTrace while in flight, but a
// full trace is retained only when the request turns out to be worth
// keeping — it errored, it was slow against a rolling latency
// threshold, or something (a quality drift transition) flagged it
// mid-flight. Healthy fast requests leave behind only a fixed-size
// summary in the recent ring and cost zero steady-state allocations:
// ActiveTraces are recycled through a free list (not a sync.Pool, so
// a GC cannot empty it), events append into preallocated storage, and
// the recent ring overwrites in place.
type FlightRecorder struct {
	cfg   FlightRecorderConfig
	epoch time.Time

	mu           sync.Mutex
	free         []*ActiveTrace          // recycled trace buffers
	inflight     map[string]*ActiveTrace // trace id -> live trace
	recent       []RequestSummary        // ring, next slot recentNext
	recentN      int                     // filled slots, <= len(recent)
	recentNext   int
	retained     []RetainedTrace // ring, next slot retainedNext
	retainedN    int
	retainedNext int
	total        uint64 // completed requests
	kept         uint64 // retained traces (lifetime)
	ewmaNs       float64
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	return &FlightRecorder{
		cfg:      cfg,
		epoch:    cfg.Now(),
		inflight: make(map[string]*ActiveTrace),
		recent:   make([]RequestSummary, recentRequests),
		retained: make([]RetainedTrace, cfg.Retain),
	}
}

// StageSummary is the aggregate timing of one named request stage.
type StageSummary struct {
	Name    string `json:"name"`
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// FlightEvent is one discrete captured event (a sub-span or a log
// marker) inside a trace, with times relative to the trace start.
type FlightEvent struct {
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// RequestSummary is the compact record of one request — what
// /debug/requests lists for both in-flight and completed requests.
type RequestSummary struct {
	TraceID       string         `json:"trace_id"`
	SpanID        string         `json:"span_id"`
	Method        string         `json:"method"`
	Path          string         `json:"path"`
	Session       string         `json:"session,omitempty"`
	Model         string         `json:"model,omitempty"`
	ModelVersion  uint64         `json:"model_version,omitempty"`
	Status        int            `json:"status"`
	StartUnixNs   int64          `json:"start_unix_ns"`
	DurationNs    int64          `json:"duration_ns"`
	InFlight      bool           `json:"in_flight"`
	Samples       uint64         `json:"samples"`
	Retained      bool           `json:"retained"`
	Slow          bool           `json:"slow,omitempty"`
	FlagReason    string         `json:"flag_reason,omitempty"`
	Error         string         `json:"error,omitempty"`
	Stages        []StageSummary `json:"stages,omitempty"`
	EventsDropped int            `json:"events_dropped,omitempty"`
}

// RetainedTrace is one fully kept trace: the summary plus the
// captured events.
type RetainedTrace struct {
	Summary RequestSummary `json:"summary"`
	Events  []FlightEvent  `json:"events"`
}

// ActiveTrace is the recorder-side state of one in-flight request.
// Its methods are goroutine-safe (the quality hub may flag or
// annotate a trace from a transition callback while /debug/requests
// snapshots it), and all of them no-op on nil, so code that runs
// outside an HTTP request (serve's EstimateSample) needs no trace
// branches.
type ActiveTrace struct {
	rec *FlightRecorder

	mu      sync.Mutex
	tc      TraceContext
	method  string
	path    string
	session string
	model   string
	modelV  uint64
	start   time.Time
	samples uint64
	stages  []StageSums   // len(cfg.Stages), reused
	events  []FlightEvent // cap maxTraceEvents, reused
	dropped int
	flagged bool
	flagWhy string
	errMsg  string
}

// StageSums is the timing aggregate of one stage slot: how many
// durations were folded in, their total and the longest of them.
type StageSums struct {
	Count   uint64
	TotalNs int64
	MaxNs   int64
}

// Add folds one duration into the sums.
func (s *StageSums) Add(d time.Duration) {
	s.Count++
	s.TotalNs += int64(d)
	s.MaxNs = max(s.MaxNs, int64(d))
}

// Begin registers an in-flight request under its trace context and
// returns its ActiveTrace. Steady-state Begin reuses a trace buffer
// from the free list and performs no allocations.
//
// A recycled buffer may still be held by a reader that looked it up
// before it was finished (InFlight, Flag, Annotate), so its fields are
// written under at.mu like every other access. The lock order is at.mu
// before r.mu (Finish's), so the buffer is taken off the free list,
// initialized, and registered in three separate critical sections.
func (r *FlightRecorder) Begin(tc TraceContext, method, path string) *ActiveTrace {
	var at *ActiveTrace
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		at = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	if at == nil {
		at = &ActiveTrace{
			rec:    r,
			stages: make([]StageSums, len(r.cfg.Stages)),
			events: make([]FlightEvent, 0, maxTraceEvents),
		}
	}
	start := r.cfg.Now()
	at.mu.Lock()
	at.tc = tc
	at.method = method
	at.path = path
	at.start = start
	at.mu.Unlock()
	r.mu.Lock()
	r.inflight[tc.TraceID] = at
	r.mu.Unlock()
	return at
}

// SetSession annotates the trace with the client session id.
func (at *ActiveTrace) SetSession(s string) {
	if at == nil {
		return
	}
	at.mu.Lock()
	at.session = s
	at.mu.Unlock()
}

// SetModel annotates the trace with the resolved model key.
func (at *ActiveTrace) SetModel(m string) {
	if at == nil {
		return
	}
	at.mu.Lock()
	at.model = m
	at.mu.Unlock()
}

// SetModelVersion annotates the trace with the model coefficient
// generation that served it (stamped at stream end, when refit may
// have advanced it).
func (at *ActiveTrace) SetModelVersion(v uint64) {
	if at == nil {
		return
	}
	at.mu.Lock()
	at.modelV = v
	at.mu.Unlock()
}

// AddStages folds sums gathered by the caller into the trace's stage
// slots — sums[i] into slot i; sums past the configured stages are
// dropped — and adds samples to its accepted-sample count, under one
// lock. A caller that times many samples keeps its own StageSums and
// hands them over once per batch: counts and totals add up, and the
// maximum of the batch maxima is the maximum over every duration, so
// the slots read as if each duration had been folded in by itself.
// It does not allocate.
func (at *ActiveTrace) AddStages(sums []StageSums, samples uint64) {
	if at == nil {
		return
	}
	at.mu.Lock()
	at.samples += samples
	for i := range min(len(sums), len(at.stages)) {
		s := &at.stages[i]
		s.Count += sums[i].Count
		s.TotalNs += sums[i].TotalNs
		s.MaxNs = max(s.MaxNs, sums[i].MaxNs)
	}
	at.mu.Unlock()
}

// Event captures one discrete sub-span ending now on the recorder's
// clock with the given duration (0 for a marker). The per-trace event
// storage is bounded: past maxTraceEvents the event is counted as
// dropped, not stored — the recorder never grows without bound on a
// hostile or enormous stream.
func (at *ActiveTrace) Event(name, detail string, d time.Duration) {
	if at == nil {
		return
	}
	end := at.rec.cfg.Now()
	at.mu.Lock()
	at.eventLocked(end, name, detail, d)
	at.mu.Unlock()
}

// eventLocked is Event with at.mu held and the end time read.
func (at *ActiveTrace) eventLocked(end time.Time, name, detail string, d time.Duration) {
	if len(at.events) < cap(at.events) {
		at.events = append(at.events, FlightEvent{
			Name:    name,
			Detail:  detail,
			StartNs: int64(end.Sub(at.start)) - int64(d),
			DurNs:   int64(d),
		})
	} else {
		at.dropped++
	}
}

// Error records the request's terminal error message; a non-empty
// error forces retention at Finish.
func (at *ActiveTrace) Error(msg string) {
	if at == nil {
		return
	}
	at.mu.Lock()
	at.errMsg = msg
	at.mu.Unlock()
}

// flagLocked marks the trace for retention regardless of latency or
// status (e.g. it coincided with a quality drift transition). The
// first reason wins.
func (at *ActiveTrace) flagLocked(reason string) {
	if !at.flagged {
		at.flagged = true
		at.flagWhy = reason
	}
}

// summarizeInto renders the trace as a RequestSummary into dst,
// reusing dst's Stages capacity — Finish summarizes into ring slots
// in place, so the steady state allocates nothing. Caller holds
// at.mu.
func (at *ActiveTrace) summarizeInto(dst *RequestSummary, now time.Time, inflight bool) {
	stages := dst.Stages[:0]
	for i, sum := range at.stages {
		if sum.Count == 0 {
			continue
		}
		stages = append(stages, StageSummary{
			Name:    at.rec.cfg.Stages[i],
			Count:   sum.Count,
			TotalNs: sum.TotalNs,
			MaxNs:   sum.MaxNs,
		})
	}
	*dst = RequestSummary{
		TraceID:       at.tc.TraceID,
		SpanID:        at.tc.SpanID,
		Method:        at.method,
		Path:          at.path,
		Session:       at.session,
		Model:         at.model,
		ModelVersion:  at.modelV,
		StartUnixNs:   at.start.UnixNano(),
		DurationNs:    int64(now.Sub(at.start)),
		InFlight:      inflight,
		Samples:       at.samples,
		FlagReason:    at.flagWhy,
		Error:         at.errMsg,
		EventsDropped: at.dropped,
	}
	if len(stages) > 0 {
		dst.Stages = stages
	}
}

// reset clears the trace buffer for reuse, keeping the allocated
// stage and event storage.
func (at *ActiveTrace) reset() {
	at.tc = TraceContext{}
	at.method, at.path, at.session, at.model = "", "", "", ""
	at.modelV = 0
	at.samples = 0
	clear(at.stages)
	for i := range at.events {
		at.events[i] = FlightEvent{}
	}
	at.events = at.events[:0]
	at.dropped = 0
	at.flagged = false
	at.flagWhy = ""
	at.errMsg = ""
}

// Finish completes the trace with the response status, applies the
// tail-sampling retention decision, records the summary into the
// recent ring, and recycles the trace buffer. It reports whether the
// full trace was retained. The hot path (healthy fast request) does
// not allocate: the summary without stages is written into a ring
// slot in place and the buffer returns to the free list.
func (r *FlightRecorder) Finish(at *ActiveTrace, status int) (retained bool) {
	now := r.cfg.Now()

	at.mu.Lock()
	dur := now.Sub(at.start)
	errored := status >= 400 || at.errMsg != ""
	flagged := at.flagged

	r.mu.Lock()
	delete(r.inflight, at.tc.TraceID)
	r.total++
	slow := r.total > slowWarmup &&
		float64(dur) > slowFactor*r.ewmaNs &&
		dur >= r.cfg.MinSlow
	// The rolling mean folds every request in, including the outliers:
	// a sustained regression raises the threshold so the recorder
	// keeps capturing only the new tail, not every request.
	const ewmaAlpha = 0.05
	if r.total == 1 {
		r.ewmaNs = float64(dur)
	} else {
		r.ewmaNs += ewmaAlpha * (float64(dur) - r.ewmaNs)
	}
	retained = errored || flagged || slow

	slot := &r.recent[r.recentNext]
	at.summarizeInto(slot, now, false)
	slot.Status = status
	slot.Slow = slow
	slot.Retained = retained
	r.recentNext = (r.recentNext + 1) % len(r.recent)
	if r.recentN < len(r.recent) {
		r.recentN++
	}
	if retained {
		r.kept++
		// The retained entry owns its Stages and Events storage (reused
		// across ring laps) — it must not alias the recent slot, which
		// is overwritten in place on a later request.
		rt := &r.retained[r.retainedNext]
		stages := append(rt.Summary.Stages[:0], slot.Stages...)
		rt.Summary = *slot
		rt.Summary.Stages = nil
		if len(stages) > 0 {
			rt.Summary.Stages = stages
		}
		rt.Events = append(rt.Events[:0], at.events...)
		r.retainedNext = (r.retainedNext + 1) % len(r.retained)
		if r.retainedN < len(r.retained) {
			r.retainedN++
		}
	}
	at.reset()
	if len(r.free) < cap(r.free) || len(r.free) < recentRequests {
		r.free = append(r.free, at)
	}
	r.mu.Unlock()
	at.mu.Unlock()
	return retained
}

// Lookup returns the in-flight trace registered under traceID (nil
// when absent) so a handler can annotate the trace its middleware
// began.
func (r *FlightRecorder) Lookup(traceID string) *ActiveTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inflight[traceID]
}

// Flag marks the in-flight trace with the given trace id for
// retention; it reports whether the trace was found.
func (r *FlightRecorder) Flag(traceID, reason string) bool {
	return r.withInFlight(traceID, func(at *ActiveTrace) { at.flagLocked(reason) })
}

// Annotate appends a discrete zero-duration marker event to the
// in-flight trace with the given trace id (e.g. "quality transition
// warn→alert"); it reports whether the trace was found.
func (r *FlightRecorder) Annotate(traceID, name, detail string) bool {
	end := r.cfg.Now()
	return r.withInFlight(traceID, func(at *ActiveTrace) { at.eventLocked(end, name, detail, 0) })
}

// withInFlight runs fn under at.mu on the in-flight trace registered
// under traceID. The trace may finish and be recycled for another
// request between the lookup and the lock, so fn runs only if the
// trace still carries traceID.
func (r *FlightRecorder) withInFlight(traceID string, fn func(*ActiveTrace)) bool {
	r.mu.Lock()
	at := r.inflight[traceID]
	r.mu.Unlock()
	if at == nil {
		return false
	}
	at.mu.Lock()
	defer at.mu.Unlock()
	if at.tc.TraceID != traceID {
		return false
	}
	fn(at)
	return true
}

// SlowThreshold returns the current slow-retention bound: a request
// slower than this is retained. Before warmup it reports 0 (slow
// detection disarmed).
func (r *FlightRecorder) SlowThreshold() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= slowWarmup {
		return 0
	}
	th := time.Duration(slowFactor * r.ewmaNs)
	if th < r.cfg.MinSlow {
		th = r.cfg.MinSlow
	}
	return th
}

// Stats reports lifetime counters: completed requests and retained
// traces.
func (r *FlightRecorder) Stats() (total, retained uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.kept
}

// InFlight returns a summary of every in-flight request, ordered by
// start time.
func (r *FlightRecorder) InFlight() []RequestSummary {
	now := r.cfg.Now()
	r.mu.Lock()
	ats := make([]*ActiveTrace, 0, len(r.inflight))
	for _, at := range r.inflight {
		ats = append(ats, at)
	}
	r.mu.Unlock()
	out := make([]RequestSummary, 0, len(ats))
	for _, at := range ats {
		at.mu.Lock()
		// A trace that finished since the snapshot is either reset
		// (empty id, skipped) or already begun for another in-flight
		// request.
		if at.tc.TraceID != "" {
			var s RequestSummary
			at.summarizeInto(&s, now, true)
			out = append(out, s)
		}
		at.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNs != out[j].StartUnixNs {
			return out[i].StartUnixNs < out[j].StartUnixNs
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Recent returns the recently-completed request summaries, newest
// first.
func (r *FlightRecorder) Recent() []RequestSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestSummary, 0, r.recentN)
	for i := 0; i < r.recentN; i++ {
		idx := (r.recentNext - 1 - i + len(r.recent)) % len(r.recent)
		s := r.recent[idx]
		// The ring slot's Stages storage is overwritten in place on a
		// later request; the returned snapshot must own its copy.
		s.Stages = append([]StageSummary(nil), s.Stages...)
		if len(s.Stages) == 0 {
			s.Stages = nil
		}
		out = append(out, s)
	}
	return out
}

// Retained returns copies of the retained traces, newest first.
func (r *FlightRecorder) Retained() []RetainedTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RetainedTrace, 0, r.retainedN)
	for i := 0; i < r.retainedN; i++ {
		idx := (r.retainedNext - 1 - i + len(r.retained)) % len(r.retained)
		rt := r.retained[idx]
		rt.Events = append([]FlightEvent(nil), rt.Events...)
		rt.Summary.Stages = append([]StageSummary(nil), rt.Summary.Stages...)
		if len(rt.Summary.Stages) == 0 {
			rt.Summary.Stages = nil
		}
		out = append(out, rt)
	}
	return out
}

// WriteChromeTrace dumps every retained trace as Chrome trace_event
// JSON: one lane per trace, a root X event spanning the request, and
// child X events for captured events and stage aggregates. Every span
// event carries trace_id and span_id args, and every child carries a
// parent_span_id resolving to its root — the linkage cmd/tracecheck
// validates. Output is ordered oldest trace first; ts is microseconds
// since the recorder epoch.
func (r *FlightRecorder) WriteChromeTrace(w io.Writer) error {
	var tr chromeTrace
	tr.DisplayTimeUnit = "ms"
	kept := r.Retained()
	// Retained() is newest-first; the timeline reads oldest-first.
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Summary.StartUnixNs != kept[j].Summary.StartUnixNs {
			return kept[i].Summary.StartUnixNs < kept[j].Summary.StartUnixNs
		}
		return kept[i].Summary.TraceID < kept[j].Summary.TraceID
	})
	epochNs := r.epoch.UnixNano()
	childSeq := 0
	for lane, rt := range kept {
		s := rt.Summary
		tid := int64(lane + 1)
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tid,
			Args:  map[string]any{"name": fmt.Sprintf("trace %s %s", shortID(s.TraceID), s.Path)},
		})
		rootTS := float64(s.StartUnixNs-epochNs) / 1e3
		rootDur := float64(s.DurationNs) / 1e3
		rootArgs := map[string]any{
			"trace_id": s.TraceID,
			"span_id":  s.SpanID,
			"status":   s.Status,
			"samples":  s.Samples,
		}
		if s.Session != "" {
			rootArgs["session"] = s.Session
		}
		if s.Model != "" {
			rootArgs["model"] = s.Model
		}
		if s.FlagReason != "" {
			rootArgs["flag_reason"] = s.FlagReason
		}
		if s.Error != "" {
			rootArgs["error"] = s.Error
		}
		if s.Slow {
			rootArgs["slow"] = true
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name:  s.Method + " " + s.Path,
			Cat:   "flightrec",
			Phase: "X",
			TS:    rootTS,
			Dur:   &rootDur,
			PID:   1,
			TID:   tid,
			Args:  rootArgs,
		})
		child := func(name string, ts, dur float64, extra map[string]any) {
			childSeq++
			args := map[string]any{
				"trace_id":       s.TraceID,
				"span_id":        fmt.Sprintf("%016x", uint64(childSeq)),
				"parent_span_id": s.SpanID,
			}
			for k, v := range extra {
				args[k] = v
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name:  name,
				Cat:   "flightrec",
				Phase: "X",
				TS:    ts,
				Dur:   &dur,
				PID:   1,
				TID:   tid,
				Args:  args,
			})
		}
		for _, ev := range rt.Events {
			extra := map[string]any(nil)
			if ev.Detail != "" {
				extra = map[string]any{"detail": ev.Detail}
			}
			child(ev.Name, rootTS+float64(ev.StartNs)/1e3, float64(ev.DurNs)/1e3, extra)
		}
		// Stage aggregates render as spans starting at the request
		// start with the stage's total time — a duration budget view,
		// not a timeline (the per-call times are folded, not stored).
		for _, st := range s.Stages {
			child("stage:"+st.Name, rootTS, float64(st.TotalNs)/1e3, map[string]any{
				"count":  st.Count,
				"max_ns": st.MaxNs,
			})
		}
	}
	return writeChromeJSON(w, tr)
}

// WriteFile dumps the retained traces to path, creating or
// truncating it.
func (r *FlightRecorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: writing flight record: %w", err)
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing flight record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: writing flight record: %w", err)
	}
	return nil
}

// shortID abbreviates a trace id for display.
func shortID(id string) string {
	if len(id) > 8 {
		return id[:8]
	}
	return id
}
