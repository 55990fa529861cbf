package server

// Sharded registry core: the program table, spec cache, and per-program
// writer locks are split into N independent lock domains keyed by the
// program's content hash. Lookup/Register/Ingest on programs that land
// in different shards never touch the same mutex, so the registry's
// critical sections (map reads and LRU recency updates — held on every
// warm lookup) stop being a global serialization point under
// multi-program load. The shard index is derived from the same
// content-addressed identity the registry already hands out as the
// program id, so a program's shard is stable across restarts, replicas,
// and re-registrations — leaders and followers agree on placement for
// free, exactly as they already agree on ids.
//
// Each shard also carries an admission gate: a bounded in-flight
// counter sized by the server at startup. A request is admitted only
// if its program's shard has capacity; otherwise it is rejected
// immediately (429 with Retry-After) instead of queueing until the
// request deadline. One overloaded program family can then exhaust only
// its own shard's slots — traffic on the other shards keeps flowing.

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// shard is one lock domain of the registry. All three tables are
// guarded by the shard's own mutex; nothing in a shard is ever touched
// under another shard's lock.
type shard struct {
	mu    sync.Mutex
	progs map[string]*programSource // guarded-by: mu
	cache *lru[*future]             // guarded-by: mu
	// writing holds the per-program writer locks for programs currently
	// being ingested. Entries are refcounted: created on demand by the
	// first waiting writer and deleted when the last one releases, so
	// the map holds only in-flight writers — a churn workload that
	// touches millions of programs leaves it empty, not leaking one
	// mutex per program forever.
	writing map[string]*writerLock // guarded-by: mu

	// Admission gate, consulted by every dispatched request.
	inflight atomic.Int64 // requests admitted to this shard, not yet finished
	capacity atomic.Int64 // gate size; requests beyond it are shed
	sheds    atomic.Int64 // requests rejected by the gate
}

// writerLock serializes writers on one program. refs counts holders and
// waiters so the owning shard can drop the map entry when it hits zero.
type writerLock struct {
	mu   sync.Mutex
	refs int // guarded-by: shard.mu
}

func newShard(cacheCap int, onEvict func(string, *future)) *shard {
	sh := &shard{
		progs:   make(map[string]*programSource),
		cache:   newLRU[*future](cacheCap, onEvict),
		writing: make(map[string]*writerLock),
	}
	sh.capacity.Store(1 << 30) // effectively unbounded until the server sizes it
	return sh
}

// shardIndex maps a program id to its lock-domain index. The id is
// already a content hash, but it is hex text with structure; one FNV-1a
// pass spreads it uniformly over the shard count.
func (r *Registry) shardIndex(id string) int {
	if len(r.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(id)) //nolint:errcheck // fnv never fails
	return int(h.Sum32() % uint32(len(r.shards)))
}

// shardFor maps a program id to its lock domain.
func (r *Registry) shardFor(id string) *shard {
	return r.shards[r.shardIndex(id)]
}

// ShardCount reports the number of lock domains.
func (r *Registry) ShardCount() int { return len(r.shards) }

// setShardCapacity sizes every shard's admission gate (server startup).
func (r *Registry) setShardCapacity(n int) {
	for _, sh := range r.shards {
		sh.capacity.Store(int64(n))
	}
}

// tryAcquire admits a request into the shard's in-flight window,
// reporting false (and counting a shed) when the window is full. The
// check is a CAS loop, so a saturated shard rejects in nanoseconds —
// shedding must stay cheap precisely when the server is busiest.
func (sh *shard) tryAcquire() bool {
	cap := sh.capacity.Load()
	for {
		cur := sh.inflight.Load()
		if cur >= cap {
			sh.sheds.Add(1)
			return false
		}
		if sh.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (sh *shard) release() { sh.inflight.Add(-1) }

// lockWriter takes the program's writer lock, creating the refcounted
// entry on first use. Every lockWriter must be paired with unlockWriter.
func (sh *shard) lockWriter(id string) *writerLock {
	sh.mu.Lock()
	wl := sh.writing[id]
	if wl == nil {
		wl = &writerLock{}
		sh.writing[id] = wl
	}
	wl.refs++
	sh.mu.Unlock()
	wl.mu.Lock()
	return wl
}

// unlockWriter releases the writer lock and drops the map entry when no
// other writer holds or awaits it — the regression guard for the
// one-mutex-per-program-forever leak.
func (sh *shard) unlockWriter(id string, wl *writerLock) {
	wl.mu.Unlock()
	sh.mu.Lock()
	wl.refs--
	if wl.refs <= 0 {
		delete(sh.writing, id)
	}
	sh.mu.Unlock()
}

// WritingLen reports how many per-program writer locks are live across
// all shards (test hook: must return to 0 when no ingest is in flight).
func (r *Registry) WritingLen() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += len(sh.writing)
		sh.mu.Unlock()
	}
	return n
}

// ShardSnapshot is the per-shard section of /metrics.
type ShardSnapshot struct {
	Programs int   `json:"programs"` // registered sources in this shard
	Warm     int   `json:"warm"`     // resident spec-cache entries
	InFlight int64 `json:"in_flight"`
	Capacity int64 `json:"capacity"`
	Sheds    int64 `json:"sheds"`
}

// ShardStats snapshots every shard's table sizes and admission gate.
func (r *Registry) ShardStats() []ShardSnapshot {
	out := make([]ShardSnapshot, len(r.shards))
	for i, sh := range r.shards {
		sh.mu.Lock()
		progs, warm := len(sh.progs), sh.cache.len()
		sh.mu.Unlock()
		out[i] = ShardSnapshot{
			Programs: progs,
			Warm:     warm,
			InFlight: sh.inflight.Load(),
			Capacity: sh.capacity.Load(),
			Sheds:    sh.sheds.Load(),
		}
	}
	return out
}
