package llm

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/spider"
)

// countingClient counts backend calls and can block them until released, to
// observe single-flight coalescing.
type countingClient struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, Complete blocks until the gate closes
}

func (c *countingClient) Name() string { return "counting" }

func (c *countingClient) Complete(req Request) Response {
	c.calls.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return Response{SQLs: []string{fmt.Sprintf("SELECT %d", req.Seed)}, InputTokens: 1, OutputTokens: 1}
}

func req(seed int64) Request { return Request{Prompt: prompt.Text{"p"}, N: 3, Seed: seed} }

func TestCacheHitMissCounters(t *testing.T) {
	inner := &countingClient{}
	c := NewCache(inner, 64)
	a := c.Complete(req(1))
	b := c.Complete(req(1))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cached response differs: %+v vs %+v", a, b)
	}
	c.Complete(req(2))
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("want 1 hit / 2 misses, got %+v", st)
	}
	if inner.calls.Load() != 2 {
		t.Errorf("backend called %d times, want 2", inner.calls.Load())
	}
	if c.Name() != "counting" {
		t.Errorf("cache must be transparent about the backend name, got %q", c.Name())
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	inner := &countingClient{}
	c := NewCache(inner, 256)
	base := Request{Prompt: prompt.Text{"p"}, N: 3, Seed: 1}
	variants := []Request{
		{Prompt: prompt.Text{"q"}, N: 3, Seed: 1},
		{Prompt: prompt.Text{"p"}, N: 4, Seed: 1},
		{Prompt: prompt.Text{"p"}, N: 3, Seed: 2},
		{Prompt: prompt.Text{"p"}, N: 3, Seed: 1, CoT: true},
		{Prompt: prompt.Text{"p"}, N: 3, Seed: 1, Calibrated: true},
		{Prompt: prompt.Text{"p"}, N: 3, Seed: 1, Task: &spider.Example{ID: 7, GoldSQL: "SELECT 1"}},
		{Prompt: prompt.Text{"p"}, N: 3, Seed: 1, Task: &spider.Example{ID: 7, GoldSQL: "SELECT 1", DB: &schema.Database{Name: "concert_singer"}}},
		{Prompt: prompt.Text{"p"}, N: 3, Seed: 1, Task: &spider.Example{ID: 7, GoldSQL: "SELECT 1", DB: &schema.Database{Name: "pets_1"}}},
	}
	c.Complete(base)
	for _, v := range variants {
		c.Complete(v)
	}
	if got := c.Stats().Misses; got != int64(1+len(variants)) {
		t.Errorf("every variant must miss: %d misses for %d distinct requests", got, 1+len(variants))
	}
}

// refRequestKey is requestKey as it was, over the joined prompt text with
// hash/fnv.
func refRequestKey(name string, req Request) uint64 {
	h := fnv.New64a()
	write := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	write(name, strings.Join(req.Prompt, ""),
		strconv.Itoa(req.N),
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

// TestCacheKeyIgnoresBlockSplit: a prompt's key is that of its text, so
// Text{a, b} and Text{a + b} share it, and it is the key the joined text
// had, whatever the request's other fields.
func TestCacheKeyIgnoresBlockSplit(t *testing.T) {
	c := NewCache(&countingClient{}, 64)
	task := &spider.Example{ID: 7, Variant: "dk", NL: "q", GoldSQL: "SELECT 1", Class: "simple", LinkNoise: 0.25, DB: &schema.Database{Name: "pets_1"}}
	for _, r := range []Request{
		{Prompt: prompt.Text{"### Example\nSQL: SELECT a\n\n", "### Task\nQ: q\nSQL:"}, N: 30, Seed: 9},
		{Prompt: prompt.Text{"-- inst\n", "", "### Task\nSQL:"}, N: 1, CoT: true, Calibrated: true, Seed: -4, Task: task},
		{Prompt: nil, N: 3, Task: &spider.Example{ID: 2}},
	} {
		joined := r
		joined.Prompt = prompt.Text{strings.Join(r.Prompt, "")}
		if got, one := c.requestKey(r), c.requestKey(joined); got != one {
			t.Errorf("%q: key %x, joined into one block %x", r.Prompt, got, one)
		}
		if got, want := c.requestKey(r), refRequestKey("counting", r); got != want {
			t.Errorf("%q: key %x, reference %x", r.Prompt, got, want)
		}
	}
}

// TestCacheSingleFlight fires many concurrent identical requests at a
// blocked backend and asserts exactly one reaches it; the rest share the
// leader's result.
func TestCacheSingleFlight(t *testing.T) {
	inner := &countingClient{gate: make(chan struct{})}
	c := NewCache(inner, 64)
	const n = 32
	var wg sync.WaitGroup
	results := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Complete(req(42))
		}(i)
	}
	// Let the leader reach the backend, then release it.
	for inner.calls.Load() == 0 {
	}
	close(inner.gate)
	wg.Wait()
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("backend called %d times for identical concurrent requests, want 1", got)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d got a different response", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("want 1 miss / %d hits, got %+v", n-1, st)
	}
}

func TestCacheEvictionBounds(t *testing.T) {
	inner := &countingClient{}
	capacity := 32
	c := NewCache(inner, capacity)
	const inserts = 500
	for i := 0; i < inserts; i++ {
		c.Complete(req(int64(i)))
	}
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions after overflowing capacity")
	}
	if st.Entries+int(st.Evictions) != inserts {
		t.Errorf("entries(%d) + evictions(%d) != inserts(%d)", st.Entries, st.Evictions, inserts)
	}
}

// TestCacheLRUKeepsRecent verifies recency ordering within a shard: re-touch
// a key, overflow the cache, and the touched key must survive longer than
// untouched peers (observable as a hit instead of a backend call).
func TestCacheLRUKeepsRecent(t *testing.T) {
	inner := &countingClient{}
	c := NewCache(inner, 16) // one entry per shard
	c.Complete(req(1))
	// A second identical request is a hit (refreshing recency) and must not
	// re-call the backend.
	before := inner.calls.Load()
	c.Complete(req(1))
	if inner.calls.Load() != before {
		t.Error("hit went to the backend")
	}
}

// TestCacheConcurrentMixed hammers the cache with overlapping keys from many
// goroutines; run under -race this validates the striping.
func TestCacheConcurrentMixed(t *testing.T) {
	inner := &countingClient{}
	c := NewCache(inner, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				resp := c.Complete(req(int64(i % 50)))
				if len(resp.SQLs) != 1 {
					t.Errorf("bad response: %+v", resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("lookup accounting off: %+v", st)
	}
	if st.Hits == 0 {
		t.Error("overlapping keys should produce hits")
	}
}

// TestCachedSimIsTransparent checks the end-to-end contract against the real
// simulated LLM: wrapping it in a cache changes no response, hot or cold.
func TestCachedSimIsTransparent(t *testing.T) {
	sim := NewSim(ChatGPT)
	c := NewCache(NewSim(ChatGPT), 64)
	for seed := int64(0); seed < 20; seed++ {
		r := Request{Prompt: prompt.Text{"SELECT demo"}, N: 5, Seed: seed}
		want := sim.Complete(r)
		cold := c.Complete(r)
		hot := c.Complete(r)
		if !reflect.DeepEqual(want, cold) || !reflect.DeepEqual(want, hot) {
			t.Fatalf("seed %d: cache not transparent", seed)
		}
	}
	// Mutating a returned response must not poison the cache.
	r := Request{Prompt: prompt.Text{"SELECT demo"}, N: 2, Seed: 99}
	first := c.Complete(r)
	first.SQLs[0] = "CORRUPTED"
	second := c.Complete(r)
	if second.SQLs[0] == "CORRUPTED" {
		t.Error("caller mutation leaked into the cached response")
	}
}

// failingClient returns an empty (failure) response for the first n calls,
// then succeeds — modeling an HTTP backend riding out a transient outage.
type failingClient struct {
	calls    atomic.Int64
	failFor  int64
	panicFor int64
}

func (f *failingClient) Name() string { return "failing" }

func (f *failingClient) Complete(req Request) Response {
	n := f.calls.Add(1)
	if n <= f.panicFor {
		panic("backend exploded")
	}
	if n <= f.failFor+f.panicFor {
		return Response{} // no SQLs: transport failure after retries
	}
	return Response{SQLs: []string{"SELECT 1"}, InputTokens: 1, OutputTokens: 1}
}

// TestCacheDoesNotMemoizeFailures: an empty response (failed backend call)
// must not be served from memory forever — the next identical request
// retries the backend and the recovery is cached normally.
func TestCacheDoesNotMemoizeFailures(t *testing.T) {
	inner := &failingClient{failFor: 1}
	c := NewCache(inner, 64)
	if got := c.Complete(req(1)); len(got.SQLs) != 0 {
		t.Fatalf("first call should surface the failure, got %+v", got)
	}
	if got := c.Complete(req(1)); len(got.SQLs) != 1 {
		t.Fatalf("second call should retry the backend, got %+v", got)
	}
	if inner.calls.Load() != 2 {
		t.Errorf("backend called %d times, want 2 (failure not memoized)", inner.calls.Load())
	}
	// The recovered response IS memoized.
	c.Complete(req(1))
	if inner.calls.Load() != 2 {
		t.Errorf("successful response not memoized: %d backend calls", inner.calls.Load())
	}
}

// TestCachePanicUnblocksKey: a panicking backend must not leave the
// in-flight entry stuck open — later requests for the same key must reach
// the backend instead of parking forever on the dead leader's channel.
func TestCachePanicUnblocksKey(t *testing.T) {
	inner := &failingClient{panicFor: 1}
	c := NewCache(inner, 64)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic should propagate to the leader's caller")
			}
		}()
		c.Complete(req(5))
	}()
	done := make(chan Response, 1)
	go func() { done <- c.Complete(req(5)) }()
	select {
	case got := <-done:
		if len(got.SQLs) != 1 {
			t.Errorf("retry after panic returned %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request after leader panic deadlocked")
	}
}
