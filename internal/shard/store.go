package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

// Backend pairs a stable shard ID with the store reached through it —
// usually an ssp.Client over that shard's own pipelined connection, or a
// bare MemStore for the out-of-band bootstrap path.
type Backend struct {
	ID    string
	Store ssp.BlobStore
}

// Options configures a Store. Zero values take the defaults noted.
type Options struct {
	// Replicas is R: every blob lives on this many distinct shards
	// (default 2, clamped to the shard count).
	Replicas int
	// WriteQuorum is W: a write acks after W of its R replica writes
	// succeed; the rest complete in the background (default majority,
	// (R/2)+1). Must be 1 <= W <= R.
	WriteQuorum int
	// HedgeDelay is how long a read waits on one replica before hedging
	// the request to the next (default 2ms; <0 disables hedging so a
	// read walks replicas strictly on failure).
	HedgeDelay time.Duration
	// Vnodes per shard on the ring (default DefaultVnodes).
	Vnodes int
	// BreakerThreshold opens a backend's circuit breaker after this many
	// consecutive failures (default 5; <0 disables breakers). An open
	// breaker is skipped in read replica walks — the hedge to the next
	// replica fires immediately — until BreakerCooldown (default 25ms)
	// elapses and a half-open probe either closes or re-opens it. Writes
	// are never skipped, and a read whose healthy replicas all miss falls
	// back to the skipped ones, so breakers reorder work but never lose
	// it.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// BgLimit bounds the concurrent best-effort background goroutines
	// (quorum-remainder drains, read repairs, old-ring writes; default
	// 64, <0 unbounded). Tasks beyond the limit are shed and counted in
	// shard.put.bg_shed; the quorum-carrying replica writes themselves
	// are never shed.
	BgLimit int
	// Registry, when non-nil, receives shard metrics: shard.put.quorum /
	// shard.put.bg_fail / shard.put.bg_shed / shard.get.hedged /
	// shard.get.hedge_won / shard.get.fallback / shard.repair /
	// shard.repair_fail / shard.breaker.* counters, the
	// shard.breaker.open_now gauge, and the shard.rebalance.moved
	// counter.
	Registry *obs.Registry
}

func (o *Options) defaults(n int) error {
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if o.Replicas > n {
		o.Replicas = n
	}
	if o.Replicas < 1 {
		return fmt.Errorf("shard: replicas %d < 1", o.Replicas)
	}
	if o.WriteQuorum == 0 {
		o.WriteQuorum = o.Replicas/2 + 1
	}
	if o.WriteQuorum < 1 || o.WriteQuorum > o.Replicas {
		return fmt.Errorf("shard: write quorum %d outside 1..%d", o.WriteQuorum, o.Replicas)
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 2 * time.Millisecond
	}
	if o.Vnodes <= 0 {
		o.Vnodes = DefaultVnodes
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 25 * time.Millisecond
	}
	if o.BgLimit == 0 {
		o.BgLimit = 64
	}
	return nil
}

// ErrQuorum is wrapped by writes that could not reach their write
// quorum, synchronously or (sticky, surfaced later) in the background.
var ErrQuorum = errors.New("shard: write quorum not reached")

// Store implements ssp.BlobStore over N backend SSPs. See the package
// comment for the trust argument; mechanically:
//
//   - every (ns, key) maps to R successor shards on a consistent-hash
//     ring of virtual nodes;
//   - Put/Delete/BatchPut ack after W of R replica writes succeed, the
//     remainder finishing in the background (a background quorum loss is
//     remembered and surfaced, sticky, on a later write or Barrier);
//   - Get tries the primary, hedges to the next replica after
//     HedgeDelay, and falls over immediately on error or not-found;
//   - a read served by a secondary (or one observing a missing replica)
//     pushes the winning value back to the replicas that missed it
//     (read-repair), asynchronously;
//   - Rebalance installs a new ring live: ownership-changed keys are
//     streamed to their new shards while reads fall back to the old ring
//     and writes double-route, then the old ring is dropped.
//
// A Store is safe for concurrent use. Close waits for background
// replica writes and repairs; it does not close the backends.
type Store struct {
	opt Options

	mu       sync.Mutex
	ring     *Ring
	old      *Ring // non-nil while a rebalance streams; reads fall back to it
	backends map[string]ssp.BlobStore
	// dirty marks keys written since the current rebalance swapped rings
	// (ns|key). The streamer skips them: the writer already placed the
	// newer value on every new-ring replica, so streaming the listed
	// (older) copy would be a lost update. Nil outside a rebalance.
	dirty    map[string]bool
	sticky   error // deferred background quorum-loss error
	inflight int   // background writes + repairs not yet done
	idle     *sync.Cond
	closed   bool

	// streamMu fences writes against the rebalance streamer: writers
	// hold it shared for the full duration of their backend I/O; the
	// ring swap and each streamed chunk take it exclusively. A write
	// therefore lands either entirely before a chunk (its key is dirty
	// or already listed) or entirely after (the newer value overwrites
	// the streamed copy) — never interleaved with it.
	streamMu sync.RWMutex

	// breakers holds one circuit per backend ID, created lazily (shards
	// added by a rebalance get theirs on first use); nil when disabled.
	brmu     sync.Mutex
	breakers map[string]*breaker

	// bgSem bounds best-effort background goroutines (see Options.BgLimit);
	// nil means unbounded.
	bgSem chan struct{}
}

var _ ssp.BlobStore = (*Store)(nil)
var _ ssp.Flusher = (*Store)(nil)
var _ ssp.Router = (*Store)(nil)

// New builds a Store over backends. IDs must be unique and non-empty.
func New(backends []Backend, opt Options) (*Store, error) {
	if err := opt.defaults(len(backends)); err != nil {
		return nil, err
	}
	ids := make([]string, len(backends))
	m := make(map[string]ssp.BlobStore, len(backends))
	for i, b := range backends {
		if b.Store == nil {
			return nil, fmt.Errorf("shard: backend %q has nil store", b.ID)
		}
		ids[i] = b.ID
		m[b.ID] = b.Store
	}
	ring, err := NewRing(1, ids, opt.Vnodes)
	if err != nil {
		return nil, err
	}
	s := &Store{opt: opt, ring: ring, backends: m}
	s.idle = sync.NewCond(&s.mu)
	if opt.BreakerThreshold > 0 {
		s.breakers = make(map[string]*breaker, len(backends))
	}
	if opt.BgLimit > 0 {
		s.bgSem = make(chan struct{}, opt.BgLimit)
	}
	return s, nil
}

// Ring returns the current ring descriptor.
func (s *Store) Ring() *Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring
}

// Routes implements ssp.Router: the number of coalescing lanes a
// write-behind layer should key its buffers by.
func (s *Store) Routes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring.Shards)
}

// RouteID implements ssp.Router: the primary shard index for (ns, key).
func (s *Store) RouteID(ns wire.NS, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Owner(ns, key)
}

// replicaSet resolves (ns, key) to its replica backends under the
// current ring, plus any old-ring fallback replicas during a rebalance.
type replicaSet struct {
	ids    []string // new-ring replicas, primary first
	olds   []string // old-ring replicas not already in ids (rebalance only)
	stores map[string]ssp.BlobStore
}

func (s *Store) replicas(ns wire.NS, key string) replicaSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicasLocked(ns, key)
}

// routeWrite resolves a write's replica set and, mid-rebalance, marks
// its key dirty (before any backend I/O) so the streamer will not
// overwrite the newer value. Reports whether a rebalance is streaming.
func (s *Store) routeWrite(ns wire.NS, key string) (replicaSet, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rebalancing := s.old != nil
	if rebalancing {
		s.dirty[dirtyKey(ns, key)] = true
	}
	return s.replicasLocked(ns, key), rebalancing
}

func dirtyKey(ns wire.NS, key string) string { return string(rune(ns)) + "|" + key }

func (s *Store) replicasLocked(ns wire.NS, key string) replicaSet {
	rs := replicaSet{stores: s.backends}
	for _, si := range s.ring.Lookup(ns, key, s.opt.Replicas) {
		rs.ids = append(rs.ids, s.ring.Shards[si])
	}
	if s.old != nil {
		in := make(map[string]bool, len(rs.ids))
		for _, id := range rs.ids {
			in[id] = true
		}
		for _, si := range s.old.Lookup(ns, key, s.opt.Replicas) {
			if id := s.old.Shards[si]; !in[id] && s.backends[id] != nil {
				rs.olds = append(rs.olds, id)
			}
		}
	}
	return rs
}

// counter is a nil-safe metric increment.
func (s *Store) count(name string) {
	if s.opt.Registry != nil {
		s.opt.Registry.Counter(name).Inc()
	}
}

// spawn runs f on a tracked background goroutine; Close and Barrier wait
// for every spawned task to finish before returning.
func (s *Store) spawn(f func()) {
	s.mu.Lock()
	if s.closed {
		// Tear-down raced a new background task: run it synchronously so
		// the work still lands (it is always a best-effort write).
		s.mu.Unlock()
		f()
		return
	}
	s.inflight++
	s.mu.Unlock()
	go func() {
		defer s.taskDone()
		f()
	}()
}

func (s *Store) taskDone() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// bg runs f like spawn when a background slot is free; otherwise the task
// is shed (dropped) and counted in shard.put.bg_shed. Only best-effort
// work may come through here — remainder drains, straggler listeners,
// read repairs, old-ring writes — whose loss costs a repairable replica
// copy or a metric, never an acked write.
func (s *Store) bg(f func()) {
	if s.bgSem == nil {
		s.spawn(f)
		return
	}
	select {
	case s.bgSem <- struct{}{}:
		s.spawn(func() {
			defer func() { <-s.bgSem }()
			f()
		})
	default:
		s.count("shard.put.bg_shed")
	}
}

// breakerFor returns (lazily creating) id's breaker; nil when disabled.
// The enabled check reads immutable Options, not the map, so it needs no
// lock.
func (s *Store) breakerFor(id string) *breaker {
	if s.opt.BreakerThreshold <= 0 {
		return nil
	}
	s.brmu.Lock()
	defer s.brmu.Unlock()
	b := s.breakers[id]
	if b == nil {
		b = &breaker{}
		s.breakers[id] = b
	}
	return b
}

// allowBackend asks id's breaker whether a read should be routed there.
func (s *Store) allowBackend(id string) bool {
	b := s.breakerFor(id)
	if b == nil {
		return true
	}
	ok, tr := b.allow(time.Now(), s.opt.BreakerCooldown)
	if tr == bkProbing {
		s.count("shard.breaker.halfopen")
	}
	return ok
}

// observe feeds one backend's request outcome into its breaker, counting
// state transitions. wire.ErrNotFound is a healthy answer: the backend
// responded, it just lacks the key.
func (s *Store) observe(id string, err error) {
	b := s.breakerFor(id)
	if b == nil {
		return
	}
	ok := err == nil || errors.Is(err, wire.ErrNotFound)
	switch b.record(ok, s.opt.BreakerThreshold, time.Now()) {
	case bkOpened:
		s.count("shard.breaker.open")
		s.gaugeAdd("shard.breaker.open_now", 1)
	case bkReopened:
		// Same outage, still counted open in the gauge; only the
		// transition counter ticks.
		s.count("shard.breaker.open")
	case bkClosedAgain:
		s.count("shard.breaker.close")
		s.gaugeAdd("shard.breaker.open_now", -1)
	}
}

func (s *Store) gaugeAdd(name string, d int64) {
	if s.opt.Registry != nil {
		s.opt.Registry.Gauge(name).Add(d)
	}
}

// setSticky records a background quorum loss for later surfacing.
func (s *Store) setSticky(err error) {
	s.mu.Lock()
	if s.sticky == nil {
		s.sticky = err
	}
	s.mu.Unlock()
}

// takeSticky returns (and clears) the deferred error, if any.
func (s *Store) takeSticky() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.sticky
	s.sticky = nil
	return err
}

// Barrier implements ssp.Flusher: it waits for all background replica
// writes and repairs to land, then returns (and clears) any deferred
// quorum-loss error — the shard-layer analogue of a write-behind flush.
func (s *Store) Barrier() error {
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	err := s.sticky
	s.sticky = nil
	s.mu.Unlock()
	return err
}

// Close waits for background work. It does not close the backends (the
// caller owns their connections).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for s.inflight > 0 {
		s.idle.Wait()
	}
	err := s.sticky
	s.sticky = nil
	s.mu.Unlock()
	return err
}

// writeOne applies a single-key write (put or delete) to the key's
// replica set quorum-style: it returns once W replicas acked, leaving
// the rest to finish in the background. During a rebalance the old-ring
// replicas are written too (best-effort, not counted toward quorum, so a
// pre-swap reader's fallback path stays fresh).
func (s *Store) writeOne(ns wire.NS, key string, apply func(ssp.BlobStore) error) error {
	if err := s.takeSticky(); err != nil {
		return err
	}
	s.streamMu.RLock()
	defer s.streamMu.RUnlock()
	rs, rebalancing := s.routeWrite(ns, key)
	results := make(chan error, len(rs.ids))
	for _, id := range rs.ids {
		id, st := id, rs.stores[id]
		s.spawn(func() {
			err := apply(st)
			s.observe(id, err)
			results <- err
		})
	}
	for _, id := range rs.olds {
		id, st := id, rs.stores[id]
		s.bg(func() {
			err := apply(st)
			s.observe(id, err)
			if err != nil {
				s.count("shard.put.bg_fail")
			}
		})
	}

	need := s.opt.WriteQuorum
	acks, fails := 0, 0
	var firstErr error
	var quorumErr error
	// Wait synchronously until quorum is reached or unreachable; then
	// hand the remaining acks to a background drainer. Mid-rebalance the
	// wait covers every replica, so the whole write stays inside the
	// streamMu fence and cannot interleave with a streamed chunk.
	remaining := len(rs.ids)
	for remaining > 0 {
		if quorumErr == nil && acks >= need && !rebalancing {
			break
		}
		err := <-results
		remaining--
		if err == nil {
			acks++
		} else {
			fails++
			if firstErr == nil {
				firstErr = err
			}
			if quorumErr == nil && fails > len(rs.ids)-need {
				// Quorum can no longer be reached.
				quorumErr = fmt.Errorf("%w: %d/%d acks (last error: %w)", ErrQuorum, acks, need, firstErr)
				s.setSticky(quorumErr)
				if !rebalancing {
					s.drainAsync(results, remaining)
					return quorumErr
				}
			}
		}
	}
	if quorumErr != nil {
		return quorumErr
	}
	if fails > 0 && s.opt.Registry != nil {
		// Replica failures tolerated by the quorum are accounted like
		// background failures: the write succeeded, read-repair will
		// restore the missing copies.
		s.opt.Registry.Counter("shard.put.bg_fail").Add(int64(fails))
	}
	s.count("shard.put.quorum")
	s.drainAsync(results, remaining)
	return nil
}

// drainAsync consumes the stragglers of a quorum write off the caller's
// path, recording background failures. It must not miss a quorum loss:
// the synchronous phase already returned (or stuck) the error, so here
// failures only feed the bg_fail counter — read-repair restores the
// missing replicas on the next read.
func (s *Store) drainAsync(results chan error, remaining int) {
	if remaining == 0 {
		return
	}
	s.bg(func() {
		for i := 0; i < remaining; i++ {
			if err := <-results; err != nil {
				s.count("shard.put.bg_fail")
			}
		}
	})
}

// Put implements ssp.BlobStore.
func (s *Store) Put(ns wire.NS, key string, val []byte) error {
	return s.writeOne(ns, key, func(st ssp.BlobStore) error { return st.Put(ns, key, val) })
}

// Delete implements ssp.BlobStore. Replica deletes are quorum-counted
// like puts; a missing key is success, matching the single-store
// contract.
func (s *Store) Delete(ns wire.NS, key string) error {
	return s.writeOne(ns, key, func(st ssp.BlobStore) error { return st.Delete(ns, key) })
}

// getResult is one replica's answer to a hedged read.
type getResult struct {
	id  string
	val []byte
	err error
}

// Get implements ssp.BlobStore: primary first, hedging to the next
// replica after HedgeDelay (or immediately on error/not-found). The
// first successful value wins; replicas observed missing the value are
// repaired in the background. wire.ErrNotFound is returned only when
// every replica (and, mid-rebalance, every old-ring replica) misses.
func (s *Store) Get(ns wire.NS, key string) ([]byte, error) {
	// Reads share the rebalance fence too — not for atomicity (reads
	// don't mutate), but so the swap's wait-for-idle converges: every
	// spawn chain is rooted in a streamMu reader, so once the swap holds
	// the lock exclusively no new background task can appear.
	s.streamMu.RLock()
	defer s.streamMu.RUnlock()
	rs := s.replicas(ns, key)
	val, err := s.hedgedGet(ns, key, rs.ids, rs.stores, true)
	if err == nil {
		return val, nil
	}
	if len(rs.olds) > 0 && errors.Is(err, wire.ErrNotFound) {
		// Mid-rebalance: the key may not have been streamed to its new
		// shards yet. Serve from the old owners and repair the new ones.
		val, oldErr := s.hedgedGet(ns, key, rs.olds, rs.stores, false)
		if oldErr == nil {
			s.count("shard.get.fallback")
			s.repair(ns, key, val, rs.ids, rs.stores)
			return val, nil
		}
	}
	return nil, err
}

// hedgedGet races the ordered replica list: each entry is launched when
// its predecessor errors, reports not-found, or exceeds HedgeDelay. The
// winner's value is returned; with repairMissing set, replicas that
// answered not-found (and any not-yet-answered earlier replicas, once
// they resolve to not-found) are repaired with the winning value.
//
// Replicas whose breaker is open are skipped on the first pass — the
// hedge fires immediately to the next healthy replica — but deferred,
// not dropped: if every healthy replica fails or misses, the walk
// restarts over the skipped ones (fail-open), so a durable key can never
// read as not-found just because its only live holder tripped a breaker.
func (s *Store) hedgedGet(ns wire.NS, key string, ids []string, stores map[string]ssp.BlobStore, repairMissing bool) ([]byte, error) {
	if len(ids) == 0 {
		return nil, wire.ErrNotFound
	}
	results := make(chan getResult, len(ids))
	pool, idx := ids, 0
	var deferred []string
	lastResort := false
	launched := 0
	first := "" // the replica launched first; a hedge wins only against it
	// launch starts the next routable replica, reporting false once every
	// replica (deferred pool included) has been launched.
	launch := func() bool {
		for {
			if idx >= len(pool) {
				if lastResort || len(deferred) == 0 {
					return false
				}
				pool, idx, lastResort = deferred, 0, true
			}
			id := pool[idx]
			idx++
			if !lastResort && !s.allowBackend(id) {
				s.count("shard.breaker.skip")
				deferred = append(deferred, id)
				continue
			}
			st := stores[id]
			if launched == 0 {
				first = id
			}
			launched++
			s.spawn(func() {
				v, err := st.Get(ns, key)
				s.observe(id, err)
				results <- getResult{id: id, val: v, err: err}
			})
			return true
		}
	}
	// The first launch always succeeds: a first pass that skips every
	// replica flips to the deferred pool inside launch() and fails open.
	launch()

	var timer *time.Timer
	var hedgeC <-chan time.Time
	armHedge := func() {
		if s.opt.HedgeDelay < 0 || launched >= len(ids) {
			hedgeC = nil
			return
		}
		if timer == nil {
			timer = time.NewTimer(s.opt.HedgeDelay)
		} else {
			timer.Reset(s.opt.HedgeDelay)
		}
		hedgeC = timer.C
	}
	armHedge()
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	missing := make([]string, 0, len(ids))
	var firstErr error
	outstanding := launched
	for outstanding > 0 {
		select {
		case r := <-results:
			outstanding--
			switch {
			case r.err == nil:
				if repairMissing {
					s.finishRepairs(ns, key, r.val, missing, results, outstanding, stores)
				} else {
					s.drainGets(results, outstanding)
				}
				if r.id != first {
					s.count("shard.get.hedge_won")
				}
				return r.val, nil
			case errors.Is(r.err, wire.ErrNotFound):
				missing = append(missing, r.id)
			default:
				if firstErr == nil {
					firstErr = r.err
				}
			}
			if launch() {
				outstanding++
				armHedge()
			}
		case <-hedgeC:
			s.count("shard.get.hedged")
			if launch() {
				outstanding++
			}
			armHedge()
		}
	}
	if firstErr != nil && len(missing) < len(ids) {
		return nil, firstErr
	}
	return nil, wire.ErrNotFound
}

// finishRepairs repairs the replicas known to miss the winning value and
// keeps listening (in the background) for outstanding replicas, so a
// slow replica that eventually answers not-found is repaired too.
func (s *Store) finishRepairs(ns wire.NS, key string, val []byte, missing []string, results chan getResult, outstanding int, stores map[string]ssp.BlobStore) {
	s.repair(ns, key, val, missing, stores)
	if outstanding == 0 {
		return
	}
	s.bg(func() {
		for i := 0; i < outstanding; i++ {
			r := <-results
			if errors.Is(r.err, wire.ErrNotFound) {
				s.repair(ns, key, val, []string{r.id}, stores)
			}
		}
	})
}

// drainGets consumes straggler replica answers nobody will read.
func (s *Store) drainGets(results chan getResult, outstanding int) {
	if outstanding == 0 {
		return
	}
	s.bg(func() {
		for i := 0; i < outstanding; i++ {
			<-results
		}
	})
}

// repair pushes the winning value of a read back to replicas that missed
// it, in the background. Failures are counted, not surfaced: the repair
// is purely an availability optimization, and the value remains readable
// from its other replicas either way.
func (s *Store) repair(ns wire.NS, key string, val []byte, ids []string, stores map[string]ssp.BlobStore) {
	for _, id := range ids {
		id, st := id, stores[id]
		if st == nil {
			continue
		}
		s.bg(func() {
			err := st.Put(ns, key, val)
			s.observe(id, err)
			if err != nil {
				s.count("shard.repair_fail")
			} else {
				s.count("shard.repair")
			}
		})
	}
}

// List implements ssp.BlobStore: the listing fans out to every backend
// and merges by key (first responder in ring order wins a duplicate).
// Up to R-1 backend failures are tolerated — replication guarantees
// every key still appears on a surviving shard.
func (s *Store) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	if err := s.takeSticky(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	ids := append([]string(nil), s.ring.Shards...)
	if s.old != nil {
		in := make(map[string]bool, len(ids))
		for _, id := range ids {
			in[id] = true
		}
		for _, id := range s.old.Shards {
			if !in[id] && s.backends[id] != nil {
				ids = append(ids, id)
			}
		}
	}
	stores := s.backends
	s.mu.Unlock()

	type listRes struct {
		items []wire.KV
		err   error
	}
	results := make([]listRes, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		st := stores[id]
		go func(i int, id string) {
			defer wg.Done()
			items, err := st.List(ns, prefix)
			s.observe(id, err)
			results[i] = listRes{items: items, err: err}
		}(i, id)
	}
	wg.Wait()

	failures := 0
	var firstErr error
	merged := make(map[string][]byte)
	for _, r := range results {
		if r.err != nil {
			failures++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		for _, kv := range r.items {
			if _, ok := merged[kv.Key]; !ok {
				merged[kv.Key] = kv.Val
			}
		}
	}
	if failures >= s.opt.Replicas {
		return nil, fmt.Errorf("shard: list: %d/%d backends failed: %w", failures, len(ids), firstErr)
	}
	out := make([]wire.KV, 0, len(merged))
	for k, v := range merged {
		out = append(out, wire.KV{NS: ns, Key: k, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// BatchGet implements ssp.BlobStore: items group into one BatchGet per
// primary shard, issued in parallel; keys a primary missed (or whose
// whole batch failed) retry through the replica-walking Get, which also
// read-repairs. Results preserve input order, missing keys omitted.
func (s *Store) BatchGet(items []wire.KV) ([]wire.KV, error) {
	if len(items) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	groups := make(map[string][]int) // backend id -> indices into items
	stores := s.backends
	for i, it := range items {
		id := s.ring.Shards[s.ring.Owner(it.NS, it.Key)]
		groups[id] = append(groups[id], i)
	}
	s.mu.Unlock()

	found := make([][]byte, len(items))
	ok := make([]bool, len(items))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for id, idxs := range groups {
		st := stores[id]
		batch := make([]wire.KV, len(idxs))
		for j, i := range idxs {
			batch[j] = wire.KV{NS: items[i].NS, Key: items[i].Key}
		}
		wg.Add(1)
		go func(idxs []int, batch []wire.KV) {
			defer wg.Done()
			res, err := st.BatchGet(batch)
			if err != nil {
				return // every key of this batch falls back below
			}
			byKey := make(map[string][]byte, len(res))
			for _, kv := range res {
				byKey[string(rune(kv.NS))+"|"+kv.Key] = kv.Val
			}
			mu.Lock()
			for _, i := range idxs {
				if v, hit := byKey[string(rune(items[i].NS))+"|"+items[i].Key]; hit {
					found[i], ok[i] = v, true
				}
			}
			mu.Unlock()
		}(idxs, batch)
	}
	wg.Wait()

	out := make([]wire.KV, 0, len(items))
	for i, it := range items {
		if !ok[i] {
			v, err := s.Get(it.NS, it.Key)
			if errors.Is(err, wire.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, err
			}
			found[i] = v
		}
		out = append(out, wire.KV{NS: it.NS, Key: it.Key, Val: found[i]})
	}
	return out, nil
}

// BatchPut implements ssp.BlobStore: items expand to their replica sets,
// group into one BatchPut per backend, and every backend batch runs in
// parallel — this is what makes a write-behind flush over a sharded
// store a per-backend fan-out. Each item individually needs W of its R
// replica writes to succeed; the first under-quorum item fails the call.
func (s *Store) BatchPut(items []wire.KV) error {
	if err := s.takeSticky(); err != nil {
		return err
	}
	if len(items) == 0 {
		return nil
	}
	s.streamMu.RLock()
	defer s.streamMu.RUnlock()
	s.mu.Lock()
	groups := make(map[string][]wire.KV) // backend id -> its batch
	stores := s.backends
	counted := make([][]string, len(items)) // quorum-counted backends per item
	add := func(id string, i int, quorum bool) {
		groups[id] = append(groups[id], items[i])
		if quorum {
			counted[i] = append(counted[i], id)
		}
	}
	for i, it := range items {
		if s.old != nil {
			s.dirty[dirtyKey(it.NS, it.Key)] = true
		}
		rs := s.replicasLocked(it.NS, it.Key)
		for _, id := range rs.ids {
			add(id, i, true)
		}
		for _, id := range rs.olds {
			add(id, i, false)
		}
	}
	s.mu.Unlock()

	errs := make(map[string]error, len(groups))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for id, batch := range groups {
		st := stores[id]
		wg.Add(1)
		go func(id string, batch []wire.KV) {
			defer wg.Done()
			err := st.BatchPut(batch)
			s.observe(id, err)
			mu.Lock()
			errs[id] = err
			mu.Unlock()
		}(id, batch)
	}
	wg.Wait()

	for i := range items {
		acks := 0
		var firstErr error
		for _, id := range counted[i] {
			if err := errs[id]; err == nil {
				acks++
			} else if firstErr == nil {
				firstErr = err
			}
		}
		if acks < s.opt.WriteQuorum {
			err := fmt.Errorf("%w: item %d (%s/%s): %d/%d acks (last error: %w)",
				ErrQuorum, i, items[i].NS, items[i].Key, acks, s.opt.WriteQuorum, firstErr)
			s.setSticky(err)
			return err
		}
	}
	s.count("shard.put.quorum")
	return nil
}

// Stats implements ssp.BlobStore by summing every backend. Replication
// inflates the counts by design: the result reports what the SSPs
// actually store (R copies of every blob), which is what the storage
// overhead experiments measure.
func (s *Store) Stats() (ssp.Stats, error) {
	if err := s.takeSticky(); err != nil {
		return ssp.Stats{}, err
	}
	s.mu.Lock()
	ids := append([]string(nil), s.ring.Shards...)
	stores := s.backends
	s.mu.Unlock()

	total := ssp.Stats{PerNS: make(map[wire.NS]int64)}
	for _, id := range ids {
		st, err := stores[id].Stats()
		if err != nil {
			return ssp.Stats{}, fmt.Errorf("shard %s: %w", id, err)
		}
		total.Objects += st.Objects
		total.Bytes += st.Bytes
		for ns, n := range st.PerNS {
			total.PerNS[ns] += n
		}
	}
	return total, nil
}
