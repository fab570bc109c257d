package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"pmcpower/internal/core"
	"pmcpower/internal/obs"
	"pmcpower/internal/quality"
)

// flightStages names the per-request stage timing slots the estimate
// stream reports into the flight recorder; the stage* constants index
// into it.
var flightStages = [...]string{"parse", "push", "quality", "encode"}

const (
	stageParse = iota
	stagePush
	stageQuality
	stageEncode
	// stageRead ends time that no slot records: the wait for a line the
	// reader had to fetch, or a rejected line's error row.
	stageRead
)

// estimateStream is one /v1/estimate stream. Every NDJSON line runs
// through four stages over the stream's reusable scratch: decode
// (parseSampleInto), push (the session push with the estimate and
// refit metrics), observe (quality tracking of a labelled sample) and
// encode (the NDJSON row and the flush decision). A finished stream
// goes back to the server's free list with its buffers and scratch
// (takeStream, putStream). EstimateSample opens the same state on its
// stack for one decoded sample and runs only the push.
type estimateStream struct {
	s *Server
	// ref is the resolved model; stream is the session the samples
	// feed. key names the session in the table; its id is "" for an
	// anonymous stream, whose private session dies with it. stripe is
	// the session's shard, the estimate latency histogram's stripe.
	ref    ModelRef
	stream *core.StreamSession
	key    sessionKey
	stripe int
	// The refit counters are cumulative on the session, so metric
	// deltas are taken against the values seen at open (correct across
	// reconnects to a named session).
	lastVersion, lastRebuilds uint64

	// traceID stamps every row; fastRows, decided once when the stream
	// opens, says it needs no JSON escaping, so rows can take the
	// appender (writeEstimateFast). at is the flight-recorder trace (nil
	// outside HTTP). qmon, the model version's quality monitor, is
	// resolved at the stream's first labelled sample.
	traceID  string
	fastRows bool
	at       *obs.ActiveTrace
	qmon     *quality.Monitor
	// base is the stream's one wall-clock reading, taken at its first
	// stage boundary; mark is the monotonic time from base to the last
	// boundary.
	base time.Time
	mark time.Duration
	// sums gathers each stage slot's timings, and samples counts the
	// accepted samples, since the last hand-off to at (handOff).
	sums    [len(flightStages)]obs.StageSums
	samples uint64

	w         http.ResponseWriter
	streaming bool // true once the 200 header is out

	// Decode and encode state, reused across lines and, through the
	// free list, across requests.
	ps      parseScratch
	lineBuf []byte
	encBuf  []byte
	br      *bufio.Reader
	bw      *bufio.Writer
}

// maxFreeStreams caps the server's free list of finished estimate
// streams. Each holds its 64 KiB reader and 32 KiB writer buffers; the
// list only has to cover the concurrent requests of the keep-alive
// connections a client fleet holds open.
const maxFreeStreams = 16

// takeStream returns the stream for one /v1/estimate request: a free
// one, which keeps its buffers and parse scratch, or a new one. Every
// per-request field starts zero (putStream cleared it).
func (s *Server) takeStream(traceID string, at *obs.ActiveTrace) *estimateStream {
	var st *estimateStream
	s.freeMu.Lock()
	if n := len(s.freeStreams); n > 0 {
		st = s.freeStreams[n-1]
		s.freeStreams[n-1] = nil
		s.freeStreams = s.freeStreams[:n-1]
	}
	s.freeMu.Unlock()
	if st == nil {
		st = new(estimateStream)
	}
	st.s, st.at = s, at
	st.traceID, st.fastRows = traceID, jsonSafeString(traceID)
	return st
}

// putStream clears a finished stream's per-request fields and puts it
// on the free list, unless the list is full. The reader and writer are
// reset to nil first, so a free stream holds no request's body,
// ResponseWriter, session or trace.
func (s *Server) putStream(st *estimateStream) {
	if st.br != nil {
		st.br.Reset(nil)
		st.bw.Reset(nil)
	}
	*st = estimateStream{ps: st.ps, lineBuf: st.lineBuf, encBuf: st.encBuf, br: st.br, bw: st.bw}
	s.freeMu.Lock()
	if len(s.freeStreams) < maxFreeStreams {
		s.freeStreams = append(s.freeStreams, st)
	}
	s.freeMu.Unlock()
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("/v1/estimate")
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, ReasonParse, errors.New("serve: POST required"))
		return
	}
	tc, _ := obs.TraceFromContext(r.Context())
	st := s.takeStream(tc.TraceID, s.flightrec.Lookup(tc.TraceID))
	defer s.putStream(st)
	q := r.URL.Query()
	if herr := st.open(q.Get("model"), q.Get("session"), q.Get("alpha"), q.Get("refit")); herr != nil {
		if herr.reason == ReasonShedInflight || herr.reason == ReasonShedP99 {
			s.gate.setRetryAfter(w.Header())
		}
		writeError(w, herr.status, herr.reason, herr.err)
		return
	}
	defer st.close()
	st.serve(w, r)
}

// EstimateSample pushes one counter sample through a session exactly
// as one /v1/estimate NDJSON line would: the estimate stream's own
// open (admission gate, registry resolution, session acquisition),
// push stage and close, but without HTTP framing, parsing, or an HTTP
// request count. An empty sessionID gets a private session that dies
// with the call, like a stream without ?session=. It exists for
// in-process harnesses (the bench ladder's engine rung, the
// allocation gate in tests) that drive the serving core without a
// socket; on a named session the steady-state path allocates nothing.
func (s *Server) EstimateSample(model, sessionID string, cs core.CounterSample) (core.StreamEstimate, error) {
	st := estimateStream{s: s}
	if herr := st.open(model, sessionID, "", ""); herr != nil {
		return core.StreamEstimate{}, herr
	}
	st.lap(stageParse) // the sample arrives decoded: the push starts now
	est, reason, err := st.push(cs, 0, false)
	if err != nil {
		s.metrics.Reject(reason)
	}
	st.close()
	return est, err
}

// open runs the sequence every estimate starts with: admission, model
// resolution and session acquisition. alphaParam and refitParam are
// the raw ?alpha= and ?refit= values ("" takes the server default). On
// failure nothing is held and the error carries the status to answer
// with; on success close releases what open took.
func (st *estimateStream) open(model, sessionID, alphaParam, refitParam string) (herr *httpError) {
	s := st.s
	if herr = s.gate.admit("/v1/estimate"); herr != nil {
		st.at.Error(herr.err.Error())
		return herr
	}
	defer func() {
		if herr != nil {
			s.gate.leave()
		}
	}()
	ref, err := s.reg.Resolve(model)
	if err != nil {
		st.at.Error(err.Error())
		return &httpError{status: http.StatusNotFound, reason: ReasonParse, err: err}
	}
	st.ref = ref
	if st.at != nil {
		st.at.SetModel(ref.Key()) // Key allocates; EstimateSample must not
	}
	alpha := s.cfg.DefaultAlpha
	if alphaParam != "" {
		alpha, err = strconv.ParseFloat(alphaParam, 64)
		if err != nil || !(alpha > 0) || alpha > 1 {
			s.metrics.Reject(ReasonParse)
			return &httpError{status: http.StatusBadRequest, reason: ReasonParse,
				err: fmt.Errorf("serve: alpha %q outside (0,1]", alphaParam)}
		}
	}
	// ?refit=N opts the session into streaming refit over a sliding
	// window of N labelled samples (?refit=0 forces frozen); absent, the
	// server default applies. Window-size feasibility (N must exceed the
	// model's design width) is core.NewRefitter's check, surfaced as a
	// 400.
	refitWindow := s.cfg.RefitWindow
	if refitParam != "" {
		n, err := strconv.Atoi(refitParam)
		if err != nil || n < 0 {
			s.metrics.Reject(ReasonParse)
			return &httpError{status: http.StatusBadRequest, reason: ReasonParse,
				err: fmt.Errorf("serve: refit %q is not a non-negative window size", refitParam)}
		}
		refitWindow = n
	}
	// A named session persists across requests (and is subject to idle
	// eviction and the one-stream backpressure limit); an anonymous
	// stream gets a private session that dies with the request.
	if sessionID == "" {
		st.stream, err = core.NewStreamSessionRefit(ref.Model, alpha, refitWindow)
		if err != nil {
			return &httpError{status: http.StatusBadRequest, reason: ReasonParse, err: err}
		}
	} else {
		st.at.SetSession(sessionID)
		st.key = sessionKey{model: model, id: sessionID}
		sess, aerr := s.sessions.acquire(st.key, ref.Model, alpha, refitWindow)
		if aerr != nil {
			st.at.Error(aerr.err.Error())
			return aerr
		}
		st.stream = sess.stream
		st.stripe = s.sessions.shardIndex(st.key)
	}
	if st.stream.Refitting() { // a frozen session's refit counters stay 0
		st.lastVersion, st.lastRebuilds = st.stream.ModelVersion(), st.stream.RefitRebuilds()
	}
	return nil
}

// close releases what open took: the named session, then the
// admission token.
func (st *estimateStream) close() {
	if st.key.id != "" {
		st.s.sessions.release(st.key)
	}
	st.s.gate.leave()
}

// serve runs the request body's lines through the stages until the
// body ends. On return it flushes the writer and drains the body;
// close then releases the session and the admission token.
func (st *estimateStream) serve(w http.ResponseWriter, r *http.Request) {
	maxLine := st.s.cfg.MaxLineBytes
	st.w = w
	// NDJSON estimation reads the request body and writes the response
	// concurrently; without full duplex the HTTP/1.x server closes the
	// unread body at the first response write.
	http.NewResponseController(w).EnableFullDuplex()
	// In full-duplex mode the server no longer discards an unread body
	// on handler return, so an early exit (oversized line, rejected
	// first sample) must drain what the client already sent — bounded,
	// to keep a hostile stream from pinning the handler.
	defer io.Copy(io.Discard, io.LimitReader(r.Body, int64(maxLine)))
	// Responses are buffered and flushed when the input is drained
	// (flushIfDrained): an interactive client that sent one sample and
	// is waiting gets its row immediately, while a batch upload gets
	// one coalesced write per batch instead of one syscall and chunk
	// frame per sample — the dominant per-sample cost at fleet scale.
	// A stream from the free list re-aims its buffers at this request.
	if st.br == nil {
		st.br = bufio.NewReaderSize(r.Body, min(max(maxLine, 16), 64*1024))
		st.bw = bufio.NewWriterSize(w, 32*1024)
	} else {
		st.br.Reset(r.Body)
		st.bw.Reset(w)
	}
	defer st.bw.Flush()
	defer st.handOff() // before the final flush, early exits included
	// idle says the time since the last stage boundary is no stage's:
	// a wait for bytes the reader had to fetch, or a rejected line's
	// error row. The next line's read ends it (stageRead). A line that
	// was already buffered cost no wait, so its read joins its parse
	// and saves a clock read.
	idle := true
	var readErr error
	for readErr == nil {
		var line []byte
		buffered := st.br.Buffered()
		line, readErr = readLine(st.br, maxLine, &st.lineBuf)
		// Without a fill the reader only moved past the line and its
		// newline.
		if readErr != nil || st.br.Buffered() != buffered-len(line)-1 {
			idle = true
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			st.flushIfDrained()
			continue
		}
		if idle {
			st.lap(stageRead)
			idle = false
		}
		cs, powerW, labelled, reason, err := parseSampleInto(line, &st.ps)
		st.lap(stageParse)
		var est core.StreamEstimate
		if err == nil {
			est, reason, err = st.push(cs, powerW, labelled)
		}
		if err != nil {
			st.at.Event("reject", reason, 0)
			if !st.reject(reason, err) {
				st.at.Error(err.Error())
				return
			}
			idle = true
			continue
		}
		if labelled {
			st.observe(cs, powerW, est)
			st.lap(stageQuality)
		}
		st.encode(est)
		st.lap(stageEncode)
	}
	st.at.SetModelVersion(st.stream.ModelVersion())
	if readErr != io.EOF {
		reason := ReasonParse
		if errors.Is(readErr, bufio.ErrTooLong) {
			reason = ReasonOversized
		}
		st.at.Error(readErr.Error())
		if !st.streaming {
			// Before any row, the read error is the request's failure.
			readErr = fmt.Errorf("serve: reading stream: %w", readErr)
		}
		if !st.reject(reason, readErr) {
			return
		}
	}
	if !st.streaming {
		// Empty body: report the session totals (zero for a fresh
		// session) rather than an empty 200 with no content type.
		joules, samples := st.stream.Totals()
		writeJSON(w, http.StatusOK, struct {
			Samples uint64  `json:"samples"`
			TotalJ  float64 `json:"total_j"`
		}{Samples: samples, TotalJ: joules})
	}
}

// lap marks a stage boundary: it ends stage ended with one clock read
// and returns the time since the previous boundary. The decode,
// observe and encode durations go to their slots in sums here; the
// push stage records its own, for accepted samples only. Without a
// trace only the push is timed — its duration feeds the estimate
// latency histogram — so only its two boundaries, the ends of decode
// and push, read the clock. Only differences are needed: the stream's
// first boundary reads the wall clock once into base (no stage ends
// there that anything records), and every later one reads only the
// monotonic clock, as time.Since(base).
func (st *estimateStream) lap(ended int) time.Duration {
	if st.at == nil && ended != stageParse && ended != stagePush {
		return 0
	}
	var now time.Duration
	if st.base.IsZero() {
		st.base = time.Now()
	} else {
		now = time.Since(st.base)
	}
	d := now - st.mark
	st.mark = now
	if ended != stagePush && ended != stageRead {
		st.sums[ended].Add(d)
	}
	return d
}

// handOff passes the stage sums and the sample count gathered since
// the last hand-off to the flight-recorder trace, under its lock once,
// and starts new sums. The stream hands off when its input drains,
// before the flush, and when it ends, so /debug/requests sees an
// in-flight stream's stages at most one batch late.
func (st *estimateStream) handOff() {
	st.at.AddStages(st.sums[:], st.samples)
	st.sums = [len(flightStages)]obs.StageSums{}
	st.samples = 0
}

// push is the push stage: one decoded sample through the session
// (PushLabeled when a refitting session gets a label), then the
// estimate latency histogram and the refit metrics. A rejected sample
// returns its metrics reason and leaves the session untouched.
func (st *estimateStream) push(cs core.CounterSample, powerW float64, labelled bool) (core.StreamEstimate, string, error) {
	refit := labelled && st.stream.Refitting()
	var est core.StreamEstimate
	var err error
	if refit {
		est, err = st.stream.PushLabeled(cs, powerW)
	} else {
		est, err = st.stream.Push(cs)
	}
	d := st.lap(stagePush)
	if err != nil {
		return core.StreamEstimate{}, classifyPushError(err), err
	}
	st.s.metrics.Estimate(st.stripe, d)
	st.sums[stagePush].Add(d)
	st.samples++
	if refit {
		st.s.metrics.RefitSample(math.Abs(est.InstantW - powerW))
		if v := st.stream.ModelVersion(); v > st.lastVersion {
			st.s.metrics.Refits(v - st.lastVersion)
			st.lastVersion = v
		}
		if rb := st.stream.RefitRebuilds(); rb > st.lastRebuilds {
			st.s.metrics.RefitRebuilds(rb - st.lastRebuilds)
			st.lastRebuilds = rb
		}
	}
	return est, "", nil
}

// observe is the observe stage: a labelled sample's estimate scored
// against its label, prequentially (the estimate was computed before
// the label reached any refit), by the model version's quality monitor
// — created at the first labelled sample. Quality is a pure observer:
// it never changes a row.
func (st *estimateStream) observe(cs core.CounterSample, powerW float64, est core.StreamEstimate) {
	if st.qmon == nil {
		st.qmon = st.s.quality.monitor(st.ref.Key())
	}
	st.qmon.Observe(quality.Observation{
		TimeNs:       cs.TimeNs,
		Session:      st.key.id,
		ModelVersion: est.ModelVersion,
		TraceID:      st.traceID,
		FreqMHz:      cs.FreqMHz,
		VoltageV:     cs.VoltageV,
		Rates:        cs.Rates,
		PredictedW:   est.InstantW,
		ObservedW:    powerW,
	})
}

// encode is the encode stage: the estimate as one NDJSON row, the 200
// header going out with the first.
func (st *estimateStream) encode(est core.StreamEstimate) {
	if !st.streaming {
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.streaming = true
	}
	we := wireEstimate{
		TimeNs:       est.TimeNs,
		InstantW:     est.InstantW,
		SmoothedW:    est.SmoothedW,
		TotalJ:       est.TotalJoules,
		Samples:      est.Samples,
		ModelVersion: est.ModelVersion,
		TraceID:      st.traceID,
	}
	if !st.fastRows || !writeEstimateFast(st.bw, &st.encBuf, we) {
		json.NewEncoder(st.bw).Encode(we)
	}
	st.flushIfDrained()
}

// reject refuses one sample, or the rest of the input on a read
// error; the session state is untouched either way (core validates
// before mutating). Before the 200 header it answers 400 and closes
// the connection, and reports false: the stream is over. After the
// header it writes an NDJSON error row and the stream goes on.
func (st *estimateStream) reject(reason string, err error) bool {
	st.s.metrics.Reject(reason)
	if st.streaming {
		json.NewEncoder(st.bw).Encode(wireError{Error: err.Error(), Reason: reason, TraceID: st.traceID})
		st.flushIfDrained()
		return true
	}
	// Body bytes may still be unread: net/http's post-handler close
	// drains them to EOF, which in full-duplex mode starts the
	// connection's background read, and on a kept-alive connection that
	// read races the next request's (a recovered "invalid concurrent
	// Body.Read call" panic that resets it).
	st.w.Header().Set("Connection", "close")
	writeError(st.w, http.StatusBadRequest, reason, err)
	return false
}

// flushIfDrained is the one flush decision per record: once rows are
// flowing, flush when no more input is buffered. The stage sums go to
// the trace first, so a flush that blocks on a slow client does not
// hold them back.
func (st *estimateStream) flushIfDrained() {
	if st.streaming && st.br.Buffered() == 0 {
		st.handOff()
		st.bw.Flush()
		http.NewResponseController(st.w).Flush()
	}
}
