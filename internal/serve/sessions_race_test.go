package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmcpower/internal/obs"
)

// lookup returns the live session for key (nil when absent), so a race
// test can poke a session's stream directly.
func (sm *sessionManager) lookup(key sessionKey) *session {
	sh := sm.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[key]
}

// TestSessionManagerStreamVsEvictionRace races live acquire/release
// traffic against a continuously running idle sweeper, with the clock
// jumping past the TTL the whole time. Run under -race it pins two
// contracts at once: the table's locking is sound, and a busy session
// is never evicted out from under its stream.
func TestSessionManagerStreamVsEvictionRace(t *testing.T) {
	model, _ := fixture(t)
	clock := newFakeClock()
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

// TestServerStreamVsSweepRace is the same race at the HTTP layer:
// NDJSON streams pushing live samples while SweepIdleSessions runs
// concurrently with the idle TTL already expired. Every sample must
// come back as an estimate — a mid-stream eviction would break the
// stream — and the table must drain completely once traffic stops.
func TestServerStreamVsSweepRace(t *testing.T) {
	clock := newFakeClock()
	const ttl = 10 * time.Millisecond
	srv, ts := newTestServer(t, Config{IdleTTL: ttl, Now: clock.Now})
	_, rows := fixture(t)

	const streamers = 4
	const samples = 50
	clients := make([][]request, streamers)
	for c := range clients {
		lines := make([]string, samples)
		for i := range lines {
			lines[i] = sampleLine(t, rows[(c*samples+i)%len(rows)], uint64(i+1)*1e6)
		}
		clients[c] = []request{{fmt.Sprintf("?model=m&session=live-%d", c), ndjson(lines)}}
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
	replies, err := postConcurrently(ts, clients)
	stop.Store(true)
	sweepWG.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for c, rs := range replies {
		if r := rs[0]; r.status != http.StatusOK || len(r.errs) != 0 || len(r.ests) != samples {
			t.Errorf("live-%d: HTTP %d, %d estimates, %d errors; want 200, %d, 0",
				c, r.status, len(r.ests), len(r.errs), samples)
		}
	}

	// With everything released and the TTL long expired, one more sweep
	// must clear the whole table.
	clock.Advance(2 * ttl)
	srv.SweepIdleSessions()
	if n := srv.sessions.count(); n != 0 {
		t.Fatalf("%d sessions survive the final sweep, want 0", n)
	}
}
