package llm

import (
	"container/list"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Cache is a caching Client middleware: a sharded, mutex-striped LRU keyed
// by a hash of the request (backend identity, prompt, sampling parameters,
// task oracle fields). Self-consistency re-asks and repeated benchmark runs
// hit memory instead of the backend. Because every Client in this repo is
// deterministic given the request (the Sim derives all randomness from
// req.Seed), serving a memoized Response is observationally identical to
// re-calling the backend.
//
// Concurrent identical requests are single-flighted: the first caller
// computes, later callers block on the in-flight entry and share its result,
// so a stampede of N identical requests costs one backend call.
type Cache struct {
	inner  Client
	shards []*cacheShard
	// capacity per shard; total capacity = len(shards) * perShard.
	perShard int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
}

type cacheShard struct {
	mu sync.Mutex
	// entries holds both completed and in-flight entries. Only completed
	// entries are on the LRU list and count toward capacity; an in-flight
	// entry is pinned until its leader fills it.
	entries map[uint64]*cacheEntry
	lru     *list.List // of *cacheEntry, front = most recent
}

type cacheEntry struct {
	key  uint64
	resp Response
	// done is closed by the leader once resp is filled; nil for entries
	// inserted already-complete.
	done chan struct{}
	elem *list.Element // nil while in flight
}

// defaultCacheShards balances stripe contention against per-shard LRU
// precision; 16 stripes keep lock hold times negligible for worker counts
// far beyond the pool sizes used here.
const defaultCacheShards = 16

// NewCache wraps inner with an LRU of the given total capacity (entries).
// Capacity below the shard count is rounded up to one entry per shard.
func NewCache(inner Client, capacity int) *Cache {
	perShard := capacity / defaultCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{inner: inner, perShard: perShard}
	for i := 0; i < defaultCacheShards; i++ {
		c.shards = append(c.shards, &cacheShard{
			entries: map[uint64]*cacheEntry{},
			lru:     list.New(),
		})
	}
	return c
}

// Name implements Client.
func (c *Cache) Name() string { return c.inner.Name() }

// Complete implements Client: returns the memoized Response when the request
// has been seen, otherwise calls the inner client once (coalescing
// concurrent identical requests) and memoizes the result.
func (c *Cache) Complete(req Request) Response {
	key := c.requestKey(req)
	shard := c.shards[key%uint64(len(c.shards))]

	shard.mu.Lock()
	if e, ok := shard.entries[key]; ok {
		if e.done == nil || isClosed(e.done) {
			if e.elem != nil {
				shard.lru.MoveToFront(e.elem)
			}
			resp := e.resp
			shard.mu.Unlock()
			c.hits.Add(1)
			markCacheHit(req, true)
			return copyResponse(resp)
		}
		// In flight: wait for the leader, then share its result.
		done := e.done
		shard.mu.Unlock()
		<-done
		c.hits.Add(1)
		markCacheHit(req, true)
		shard.mu.Lock()
		resp := e.resp
		shard.mu.Unlock()
		return copyResponse(resp)
	}
	// Miss: become the leader for this key.
	e := &cacheEntry{key: key, done: make(chan struct{})}
	shard.entries[key] = e
	shard.mu.Unlock()
	c.misses.Add(1)
	markCacheHit(req, false)

	// The in-flight entry must always resolve, even if the backend panics:
	// otherwise every future request for this key parks forever on e.done.
	// Failure responses (no SQLs — e.g. an HTTP backend that exhausted its
	// retries) are shared with current waiters but NOT memoized, so the next
	// identical request retries the backend instead of replaying the outage.
	completed := false
	defer func() {
		shard.mu.Lock()
		if completed && len(e.resp.SQLs) > 0 {
			e.elem = shard.lru.PushFront(e)
			for shard.lru.Len() > c.perShard {
				back := shard.lru.Back()
				victim := back.Value.(*cacheEntry)
				shard.lru.Remove(back)
				delete(shard.entries, victim.key)
				c.evictions.Add(1)
			}
		} else {
			delete(shard.entries, key)
		}
		close(e.done)
		shard.mu.Unlock()
	}()

	e.resp = c.inner.Complete(req)
	completed = true
	return copyResponse(e.resp)
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.perShard * len(c.shards),
	}
	for _, shard := range c.shards {
		shard.mu.Lock()
		s.Entries += shard.lru.Len()
		shard.mu.Unlock()
	}
	return s
}

// requestKey hashes every request field that influences the Response. The
// Task oracle fields are part of the key because the Sim grades the prompt
// against the hidden gold and corrupts SQL against the task's database; two
// tasks sharing a prompt but differing in gold or database must not collide.
// The prompt's blocks are hashed in order, which is the FNV-1a of the
// prompt text: the key does not depend on where the blocks split it.
// The conversions to []byte do not allocate: fnv.New64a's writer is
// known here and keeps nothing.
func (c *Cache) requestKey(req Request) uint64 {
	h := fnv.New64a()
	write := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	write(c.inner.Name())
	for _, b := range req.Prompt {
		h.Write([]byte(b))
	}
	h.Write([]byte{0})
	write(strconv.Itoa(req.N),
		strconv.FormatBool(req.CoT),
		strconv.FormatBool(req.Calibrated),
		strconv.FormatInt(req.Seed, 10))
	if req.Task != nil {
		write(strconv.Itoa(req.Task.ID), req.Task.Variant, req.Task.NL,
			req.Task.GoldSQL, string(req.Task.Class),
			strconv.FormatFloat(req.Task.LinkNoise, 'g', -1, 64))
		if req.Task.DB != nil {
			write(req.Task.DB.Name)
		}
	}
	return h.Sum64()
}

// markCacheHit annotates the request's active trace span (the pipeline's
// llm.complete span) with the cache outcome. Free when the request carries no
// context or the trace is unsampled.
func markCacheHit(req Request, hit bool) {
	if req.Ctx == nil {
		return
	}
	trace.FromContext(req.Ctx).SetAttrs(trace.Bool("cache_hit", hit))
}

// copyResponse clones the SQL slice so callers cannot alias (and mutate) the
// cached value.
func copyResponse(r Response) Response {
	out := r
	out.SQLs = append([]string(nil), r.SQLs...)
	return out
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
