package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmcpower/internal/obs"
)

// raceClock is a goroutine-safe fake clock for driving the idle TTL
// from the test while streams run concurrently.
type raceClock struct {
	ns atomic.Int64
}

func newRaceClock() *raceClock {
	c := &raceClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}

func (c *raceClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *raceClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestSessionManagerStreamVsEvictionRace races live acquire/release
// traffic against a continuously running idle sweeper, with the clock
// jumping past the TTL the whole time. Run under -race it pins two
// contracts at once: the table's locking is sound, and a busy session
// is never evicted out from under its stream.
func TestSessionManagerStreamVsEvictionRace(t *testing.T) {
	model, _ := fixture(t)
	clock := newRaceClock()
	const ttl = 10 * time.Millisecond
	sm := newSessionManager(8, 64, ttl, clock.Now, NewMetrics(obs.NewRegistry(), 8))

	const (
		workers    = 8
		iterations = 200
	)
	var (
		workerWG    sync.WaitGroup
		sweeperWG   sync.WaitGroup
		stop        atomic.Bool
		busyEvicted atomic.Int64
	)

	// Sweeper: evict as aggressively as possible while streams churn.
	sweeperWG.Add(1)
	go func() {
		defer sweeperWG.Done()
		for !stop.Load() {
			clock.Advance(2 * ttl)
			sm.sweep(clock.Now())
		}
	}()

	// Workers: each owns one session key and repeatedly attaches a
	// "stream" (acquire → work → release). While attached, the session
	// must stay in the table no matter what the sweeper does.
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(w int) {
			defer workerWG.Done()
			key := sessionKey{model: "m", id: fmt.Sprintf("racer-%d", w)}
			for i := 0; i < iterations; i++ {
				s, herr := sm.acquire(key, model, 0.5, 0)
				if herr != nil {
					// With 8 keys in a 64-slot table neither the capacity
					// cap nor a busy conflict can legally fire.
					t.Errorf("acquire %v: %v", key, herr.err)
					return
				}
				// Hold the stream across several sweep opportunities; the
				// session must survive each one untouched.
				for spin := 0; spin < 3; spin++ {
					clock.Advance(2 * ttl)
					if cur := sm.lookup(key); cur != s {
						busyEvicted.Add(1)
					}
				}
				sm.release(key)
			}
		}(w)
	}

	workerWG.Wait()
	stop.Store(true)
	sweeperWG.Wait()

	if n := busyEvicted.Load(); n != 0 {
		t.Fatalf("busy session evicted (or replaced) %d times", n)
	}
	// Released, idle sessions must all be evictable once traffic stops.
	clock.Advance(2 * ttl)
	sm.sweep(clock.Now())
	if n := sm.count(); n != 0 {
		t.Fatalf("%d sessions survive a final past-TTL sweep, want 0", n)
	}
}

// racePost streams a prebuilt NDJSON body and decodes the response
// without touching testing.T, so it is safe from spawned goroutines.
func racePost(ts *httptest.Server, query, body string) (estimates, errLines int, err error) {
	resp, err := http.Post(ts.URL+"/v1/estimate"+query, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var out struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &out); err != nil {
			return estimates, errLines, fmt.Errorf("bad response line %q: %w", line, err)
		}
		if out.Error != "" {
			errLines++
		} else {
			estimates++
		}
	}
	return estimates, errLines, nil
}

// TestServerStreamVsSweepRace is the same race at the HTTP layer:
// NDJSON streams pushing live samples while SweepIdleSessions runs
// concurrently with the idle TTL already expired. Every sample must
// come back as an estimate — a mid-stream eviction would break the
// stream — and the table must drain completely once traffic stops.
func TestServerStreamVsSweepRace(t *testing.T) {
	clock := newRaceClock()
	const ttl = 10 * time.Millisecond
	srv, ts := newTestServer(t, Config{IdleTTL: ttl, Now: clock.Now})
	_, rows := fixture(t)

	// Pre-bake each streamer's body in the test goroutine; the spawned
	// goroutines only do transport work.
	const streamers = 4
	const samples = 50
	bodies := make([]string, streamers)
	for c := 0; c < streamers; c++ {
		var sb strings.Builder
		for i := 0; i < samples; i++ {
			r := rows[(c*samples+i)%len(rows)]
			sb.WriteString(sampleLine(t, r, uint64(i+1)*1e6))
			sb.WriteByte('\n')
		}
		bodies[c] = sb.String()
	}

	var sweepWG sync.WaitGroup
	var stop atomic.Bool
	sweepWG.Add(1)
	go func() {
		defer sweepWG.Done()
		for !stop.Load() {
			clock.Advance(2 * ttl)
			srv.SweepIdleSessions()
		}
	}()

	var streamWG sync.WaitGroup
	errs := make(chan error, streamers)
	for c := 0; c < streamers; c++ {
		streamWG.Add(1)
		go func(c int) {
			defer streamWG.Done()
			est, errLines, err := racePost(ts, fmt.Sprintf("?model=m&session=live-%d", c), bodies[c])
			if err != nil {
				errs <- fmt.Errorf("live-%d: %w", c, err)
				return
			}
			if errLines != 0 || est != samples {
				errs <- fmt.Errorf("live-%d: %d estimates, %d errors; want %d, 0", c, est, errLines, samples)
				return
			}
			errs <- nil
		}(c)
	}
	streamWG.Wait()
	stop.Store(true)
	sweepWG.Wait()
	for c := 0; c < streamers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	// With everything released and the TTL long expired, one more sweep
	// must clear the whole table.
	clock.Advance(2 * ttl)
	srv.SweepIdleSessions()
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions survive the final sweep, want 0", n)
	}
}
