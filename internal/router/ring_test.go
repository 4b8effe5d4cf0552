package router

import (
	"fmt"
	"math"
	"testing"
)

func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 19081+i)
	}
	return out
}

func tenantNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-db-%d", i)
	}
	return out
}

// TestRingBalance is the ISSUE-mandated distribution property: with 4
// shards at >=128 vnodes, the tenant key distribution stays within 15% of
// fair share.
func TestRingBalance(t *testing.T) {
	for _, vnodes := range []int{128, DefaultVNodes, 256} {
		t.Run(fmt.Sprintf("vnodes=%d", vnodes), func(t *testing.T) {
			shards := shardNames(4)
			r := BuildRing(shards, vnodes)
			counts := make(map[string]int, len(shards))
			keys := tenantNames(20000)
			for _, k := range keys {
				counts[r.Lookup(k)]++
			}
			fair := float64(len(keys)) / float64(len(shards))
			for _, s := range shards {
				dev := math.Abs(float64(counts[s])-fair) / fair
				if dev > 0.15 {
					t.Errorf("shard %s holds %d keys (fair %.0f, deviation %.1f%% > 15%%)",
						s, counts[s], fair, dev*100)
				}
			}
		})
	}
}

// TestRingMinimalMovementRemove: removing one shard relocates only the keys
// it owned — every other key keeps its placement — and the displaced share
// is about 1/N.
func TestRingMinimalMovementRemove(t *testing.T) {
	shards := shardNames(4)
	before := BuildRing(shards, 160)
	after := BuildRing(shards[:3], 160) // drop the last shard
	removed := shards[3]

	keys := tenantNames(20000)
	moved := 0
	for _, k := range keys {
		was, is := before.Lookup(k), after.Lookup(k)
		if was == removed {
			moved++
			continue // these must move somewhere; anywhere is legal
		}
		if was != is {
			t.Fatalf("key %q moved %s -> %s although its shard was not removed", k, was, is)
		}
	}
	share := float64(moved) / float64(len(keys))
	if share < 0.25*0.85 || share > 0.25*1.15 {
		t.Errorf("removal displaced %.1f%% of keys; want ~25%% (1/N)", share*100)
	}
}

// TestRingMinimalMovementAdd: adding a shard pulls about 1/(N+1) of the
// keys onto the newcomer and moves nothing between existing shards.
func TestRingMinimalMovementAdd(t *testing.T) {
	shards := shardNames(5)
	before := BuildRing(shards[:4], 160)
	after := BuildRing(shards, 160)
	added := shards[4]

	keys := tenantNames(20000)
	moved := 0
	for _, k := range keys {
		was, is := before.Lookup(k), after.Lookup(k)
		if was == is {
			continue
		}
		if is != added {
			t.Fatalf("key %q moved %s -> %s; only moves onto the new shard are minimal", k, was, is)
		}
		moved++
	}
	share := float64(moved) / float64(len(keys))
	if share < 0.20*0.85 || share > 0.20*1.15 {
		t.Errorf("addition displaced %.1f%% of keys; want ~20%% (1/(N+1))", share*100)
	}
}

// TestRingOrderIndependence: placement derives from shard names, not the
// order they were configured in — two routers listing the same shard set
// in different order must agree on every tenant's home.
func TestRingOrderIndependence(t *testing.T) {
	shards := shardNames(4)
	reversed := []string{shards[3], shards[2], shards[1], shards[0]}
	a := BuildRing(shards, 160)
	b := BuildRing(reversed, 160)
	for _, k := range tenantNames(2000) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("key %q: placement depends on shard order (%s vs %s)", k, a.Lookup(k), b.Lookup(k))
		}
	}
}

// TestRingLookup2 checks the replica-successor contract: the successor is
// always a different shard than the primary (on multi-shard rings), and
// the primary agrees with Lookup.
func TestRingLookup2(t *testing.T) {
	r := BuildRing(shardNames(4), 160)
	seen := make(map[string]bool)
	for _, k := range tenantNames(5000) {
		p, s := r.Lookup2(k)
		if p != r.Lookup(k) {
			t.Fatalf("key %q: Lookup2 primary %s != Lookup %s", k, p, r.Lookup(k))
		}
		if s == "" || s == p {
			t.Fatalf("key %q: bad successor %q for primary %q", k, s, p)
		}
		seen[p+"|"+s] = true
	}
	// Successor choice should vary across keys, not be a fixed pairing.
	if len(seen) < 4 {
		t.Errorf("only %d distinct (primary, successor) pairs; successor not ring-derived?", len(seen))
	}

	single := BuildRing(shardNames(1), 160)
	if p, s := single.Lookup2("x"); p == "" || s != "" {
		t.Errorf("single-shard ring: got (%q, %q), want (shard, \"\")", p, s)
	}
}

func TestRingEmpty(t *testing.T) {
	r := BuildRing(nil, 160)
	if got := r.Lookup("x"); got != "" {
		t.Errorf("empty ring Lookup = %q, want \"\"", got)
	}
	if p, s := r.Lookup2("x"); p != "" || s != "" {
		t.Errorf("empty ring Lookup2 = (%q, %q), want empty", p, s)
	}
}

// TestRingLookupZeroAlloc is the lock-free hot-path contract from the
// acceptance criteria, enforced in-test so it fails fast (the benchdiff
// allocs gate enforces it again in CI on BenchmarkRingLookup).
func TestRingLookupZeroAlloc(t *testing.T) {
	r := BuildRing(shardNames(4), 160)
	keys := tenantNames(64)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		_ = r.Lookup(keys[i&63])
		_, _ = r.Lookup2(keys[(i+1)&63])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Lookup/Lookup2 allocate %.1f per op; want 0", allocs)
	}
}

func TestRingPlacementSums(t *testing.T) {
	r := BuildRing(shardNames(4), 160)
	sum := 0.0
	for _, share := range r.Placement() {
		sum += share
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("placement shares sum to %f, want 1.0", sum)
	}
}
