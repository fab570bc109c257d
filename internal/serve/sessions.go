package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pmcpower/internal/core"
)

// httpError pairs an error with the HTTP status and metrics reason it
// should surface as at the request boundary.
type httpError struct {
	status int
	reason string
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

// sessionKey identifies one client estimator stream: the model key it
// was opened against and the client-chosen session id.
type sessionKey struct {
	model string
	id    string
}

// session is one live estimator state. The stream arithmetic lives in
// core.StreamSession (which has its own lock); busy/lastUse are
// bookkeeping guarded by the owning shard's lock.
type session struct {
	stream *core.StreamSession
	alpha  float64
	// refitWindow is the streaming-refit window the session was opened
	// with (0 = frozen). Like alpha it is fixed at creation: the refit
	// window cannot be resized, so a reopen must match.
	refitWindow int
	// busy marks an NDJSON stream currently attached — the per-session
	// backpressure limit is one concurrent stream, so two clients
	// cannot interleave one EWMA timeline.
	busy    bool
	lastUse time.Time
}

// sessionShard is one independently locked slice of the session table.
// The trailing pad keeps adjacent shards off one cache line, so two
// cores hammering neighbouring shards do not false-share.
type sessionShard struct {
	mu       sync.Mutex
	sessions map[sessionKey]*session
	_        [40]byte
}

// sessionManager owns the session table: get-or-create with a global
// capacity cap, single-stream-per-session backpressure, and idle
// eviction. The table is split across a power-of-two number of shards
// keyed by an FNV-1a hash of "model/client", each with its own mutex
// and janitor bookkeeping, so concurrent estimate streams for
// different clients never serialize on one lock. The capacity cap
// stays exact and global: a shared atomic counter is claimed under the
// owning shard's lock before a session is created.
type sessionManager struct {
	shards []sessionShard
	mask   uint64
	max    int
	ttl    time.Duration
	now    func() time.Time
	// active is the exact global live-session count (the capacity cap
	// and the sessions_active gauge), maintained with the shard locks
	// held so it never drifts from the sum of the shard maps.
	active  atomic.Int64
	metrics *Metrics
	// evictHook, when non-nil, runs once per evicted session after the
	// owning shard's lock has been released — the test seam for the
	// collect-then-close sweep contract (a slow teardown must not stall
	// acquire/release on the same shard).
	evictHook func(sessionKey, *session)
}

// shardCount rounds n up to a power of two, with a floor of 1.
func shardCount(n int) int {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func newSessionManager(shards, max int, ttl time.Duration, now func() time.Time, m *Metrics) *sessionManager {
	shards = shardCount(shards)
	sm := &sessionManager{
		shards:  make([]sessionShard, shards),
		mask:    uint64(shards - 1),
		max:     max,
		ttl:     ttl,
		now:     now,
		metrics: m,
	}
	for i := range sm.shards {
		sm.shards[i].sessions = make(map[sessionKey]*session)
	}
	return sm
}

// shardIndex hashes a session key to its shard with FNV-1a over
// "model/client". Inlined byte-wise so the hot path allocates nothing.
func (sm *sessionManager) shardIndex(key sessionKey) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.model); i++ {
		h ^= uint64(key.model[i])
		h *= prime64
	}
	h ^= '/'
	h *= prime64
	for i := 0; i < len(key.id); i++ {
		h ^= uint64(key.id[i])
		h *= prime64
	}
	return int(h & sm.mask)
}

func (sm *sessionManager) shard(key sessionKey) *sessionShard {
	return &sm.shards[sm.shardIndex(key)]
}

// acquire returns the session for key, creating it (with the given
// model, alpha, and refit window) on first use, and marks it busy
// until release.
func (sm *sessionManager) acquire(key sessionKey, m *core.Model, alpha float64, refitWindow int) (*session, *httpError) {
	sh := sm.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[key]
	if !ok {
		// Claim a capacity token before creating: the atomic is the one
		// global piece of state, so the cap stays exact across shards.
		if n := sm.active.Add(1); n > int64(sm.max) {
			sm.active.Add(-1)
			sm.metrics.Reject(ReasonSessionCap)
			return nil, &httpError{
				status: http.StatusTooManyRequests,
				reason: ReasonSessionCap,
				err:    fmt.Errorf("serve: session limit %d reached", sm.max),
			}
		}
		stream, err := core.NewStreamSessionRefit(m, alpha, refitWindow)
		if err != nil {
			sm.active.Add(-1)
			return nil, &httpError{status: http.StatusBadRequest, reason: ReasonParse, err: err}
		}
		s = &session{stream: stream, alpha: alpha, refitWindow: refitWindow}
		sh.sessions[key] = s
		sm.metrics.SessionCreated()
	} else {
		if s.busy {
			sm.metrics.Reject(ReasonSessionBusy)
			return nil, &httpError{
				status: http.StatusConflict,
				reason: ReasonSessionBusy,
				err:    fmt.Errorf("serve: session %q already has an active stream", key.id),
			}
		}
		if s.alpha != alpha {
			return nil, &httpError{
				status: http.StatusBadRequest,
				reason: ReasonParse,
				err:    fmt.Errorf("serve: session %q opened with alpha=%v; cannot reopen with alpha=%v", key.id, s.alpha, alpha),
			}
		}
		if s.refitWindow != refitWindow {
			return nil, &httpError{
				status: http.StatusBadRequest,
				reason: ReasonParse,
				err:    fmt.Errorf("serve: session %q opened with refit=%d; cannot reopen with refit=%d", key.id, s.refitWindow, refitWindow),
			}
		}
	}
	s.busy = true
	s.lastUse = sm.now()
	return s, nil
}

// release returns a session acquired by acquire and refreshes its
// idle clock.
func (sm *sessionManager) release(key sessionKey) {
	sh := sm.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.sessions[key]; ok {
		s.busy = false
		s.lastUse = sm.now()
	}
}

// sweep evicts sessions idle longer than the TTL. Busy sessions are
// never evicted: an attached stream is activity by definition.
//
// Eviction is collect-then-close per shard: expired sessions are
// unlinked (and the capacity token returned) under the shard lock,
// but the per-session teardown — eviction metrics and the evictHook —
// runs after the lock is released, so a slow teardown can never stall
// acquire/release traffic on the same shard.
func (sm *sessionManager) sweep(now time.Time) int {
	if sm.ttl <= 0 {
		return 0
	}
	var total int
	var keys []sessionKey
	var evicted []*session
	for i := range sm.shards {
		sh := &sm.shards[i]
		keys, evicted = keys[:0], evicted[:0]
		sh.mu.Lock()
		for key, s := range sh.sessions {
			if !s.busy && now.Sub(s.lastUse) > sm.ttl {
				delete(sh.sessions, key)
				sm.active.Add(-1)
				keys = append(keys, key)
				evicted = append(evicted, s)
			}
		}
		sh.mu.Unlock()
		for j, s := range evicted {
			sm.metrics.Eviction()
			if sm.evictHook != nil {
				sm.evictHook(keys[j], s)
			}
		}
		total += len(evicted)
	}
	return total
}

// count returns the number of live sessions across all shards.
func (sm *sessionManager) count() int {
	return int(sm.active.Load())
}

// shardCounts returns the per-shard live-session counts (the /v1/status
// shard-layout block and the pmcpowertop shard bars).
func (sm *sessionManager) shardCounts() []int {
	out := make([]int, len(sm.shards))
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.sessions)
		sh.mu.Unlock()
	}
	return out
}
