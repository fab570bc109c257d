package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pmcpower/internal/obs"
)

// sentRequest is one request of a checked session, kept for the
// in-process replay: the first sample index, the sample count and the
// response body.
type sentRequest struct {
	first, n int
	body     []byte
}

// conn is one keep-alive HTTP connection and the sessions pinned to
// it. Requests on a connection are strictly sequential, so each
// connection is its own FIFO and every session's samples reach the
// daemon in time order.
type conn struct {
	client   *http.Client
	urls     []string // per pinned session
	sessions []*session
	batch    int
	next     int // round-robin cursor over sessions

	// checked maps a session id to its sent-request log.
	checked map[int][]sentRequest

	body, resp, want []byte

	attempted, failed, samples int
	errs                       []string
	// spans, when set, carries the tracer and parent span under which
	// each request records a span.
	spans context.Context
}

// newConns pins sessions to n connections by id modulo n.
func newConns(n int, base, query string, sessions []*session, batch int, checked map[int]bool) []*conn {
	conns := make([]*conn, n)
	for i := range conns {
		conns[i] = &conn{
			client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}},
			batch:   batch,
			checked: make(map[int][]sentRequest),
		}
	}
	for _, s := range sessions {
		c := conns[s.id%n]
		c.sessions = append(c.sessions, s)
		c.urls = append(c.urls, base+"/v1/estimate?session="+s.name+query)
		if checked[s.id] {
			c.checked[s.id] = nil
		}
	}
	return conns
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// requestTimeout bounds every request the bench sends, so a wedged
// daemon fails the run instead of hanging it.
const requestTimeout = 30 * time.Second

// maxErrs bounds the error messages a connection keeps.
const maxErrs = 8

func (c *conn) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// sendNext sends the next session's next batch and checks the
// response. It returns the time the request was handed to the client,
// the time its response was fully read, and whether it succeeded.
func (c *conn) sendNext() (sent, done time.Time, ok bool) {
	i := c.next % len(c.sessions)
	c.next++
	s := c.sessions[i]
	first := s.next
	s.next += c.batch
	c.body = s.appendBody(c.body[:0], first, c.batch)
	c.attempted++
	var span *obs.Span
	if c.spans != nil {
		_, span = obs.FromContext(c.spans).StartSpan(c.spans, "http", obs.Int("request_id", c.attempted-1))
	}
	sent = time.Now()
	req, err := http.NewRequest(http.MethodPost, c.urls[i], bytes.NewReader(c.body))
	if err != nil {
		c.fail("%s: %v", s.name, err)
		return sent, time.Now(), false
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.client.Do(req)
	if err != nil {
		c.fail("%s: %v", s.name, err)
		return sent, time.Now(), false
	}
	buf := bytes.NewBuffer(c.resp[:0])
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done = time.Now()
	span.End()
	c.resp = buf.Bytes()
	switch {
	case err != nil:
		c.fail("%s: reading response: %v", s.name, err)
	case resp.StatusCode != http.StatusOK:
		c.fail("%s: %s: %.200s", s.name, resp.Status, c.resp)
	case resp.Header.Get("Traceparent") == "":
		c.fail("%s: response has no Traceparent header", s.name)
	default:
		if err := checkRows(c.resp, first, c.batch, &c.want); err != nil {
			c.fail("%s: %v", s.name, err)
			break
		}
		c.samples += c.batch
		if log, ok := c.checked[s.id]; ok {
			c.checked[s.id] = append(log, sentRequest{first, c.batch, append([]byte(nil), c.resp...)})
		}
		return sent, done, true
	}
	return sent, done, false
}

// checkRows verifies a response holds exactly n estimate rows echoing
// time_ns of samples first..first+n-1 in order; error rows fail the
// prefix test. want is scratch space.
func checkRows(body []byte, first, n int, want *[]byte) error {
	for k := 0; k < n; k++ {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return fmt.Errorf("response has %d rows, sent %d samples", k, n)
		}
		w := append((*want)[:0], `{"time_ns":`...)
		w = strconv.AppendUint(w, timeNs(first+k), 10)
		w = append(w, ',')
		*want = w
		if !bytes.HasPrefix(body[:nl], w) {
			return fmt.Errorf("row %d is %.120q, want time_ns %d", k, body[:nl], timeNs(first+k))
		}
		body = body[nl+1:]
	}
	if len(bytes.TrimSpace(body)) != 0 {
		return fmt.Errorf("response has rows beyond the %d samples sent", n)
	}
	return nil
}

// runClosed sends perConn requests on every connection concurrently,
// each connection waiting for its previous response, and returns the
// wall time until the last connection finished.
func runClosed(conns []*conn, perConn int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				c.sendNext()
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// openRequest is one open-loop request as measured.
type openRequest struct {
	latency float64 // seconds, response done − scheduled send
	late    float64 // seconds, actual send − scheduled send
	// stalled is the generator's own delay in seconds: actual send −
	// the later of the due time and the previous response on the
	// connection. Waiting for that response is the daemon's latency;
	// this is the bench's.
	stalled float64
	ok      bool
}

// runOpen sends each connection's requests at their scheduled offsets
// from start (sched[i] for connection i, ascending). A connection
// sends a request at its due time or as soon as the previous response
// is in, whichever is later, and every latency is timed from the due
// time, so a stall is charged to every request scheduled behind it
// rather than omitted. backlogMax is the most requests any connection
// had due and not yet sent at one send.
func runOpen(conns []*conn, sched [][]time.Duration, start time.Time) (reqs []openRequest, backlogMax int, err error) {
	type connOut struct {
		reqs    []openRequest
		backlog int
		err     error
	}
	outs := make([]connOut, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(o *connOut, c *conn, offs []time.Duration) {
			defer wg.Done()
			w, err := newWaiter()
			if err != nil {
				o.err = err
				return
			}
			defer w.close()
			o.reqs = make([]openRequest, 0, len(offs))
			dueCount := 0
			var prevDone time.Time
			for i, off := range offs {
				due := start.Add(off)
				if err := w.sleep(time.Until(due)); err != nil {
					o.err = err
					return
				}
				sent, done, ok := c.sendNext()
				for dueCount < len(offs) && !start.Add(offs[dueCount]).After(sent) {
					dueCount++
				}
				ready := due
				if prevDone.After(ready) {
					ready = prevDone
				}
				prevDone = done
				o.backlog = max(o.backlog, dueCount-i)
				o.reqs = append(o.reqs, openRequest{
					latency: done.Sub(due).Seconds(), late: max(sent.Sub(due), 0).Seconds(),
					stalled: max(sent.Sub(ready), 0).Seconds(), ok: ok,
				})
			}
		}(&outs[ci], c, sched[ci])
	}
	wg.Wait()
	for _, o := range outs {
		if o.err != nil {
			return nil, 0, o.err
		}
		reqs = append(reqs, o.reqs...)
		backlogMax = max(backlogMax, o.backlog)
	}
	return reqs, backlogMax, nil
}
