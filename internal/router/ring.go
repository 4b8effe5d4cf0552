// Package router is the horizontal-sharding tier: a consistent-hash ring
// places tenants (by database name) on shards, an RCU-style immutable
// routing table republishes placement on health changes, and a proxying
// HTTP handler forwards requests over pooled connections with budgeted
// retries and tail-latency hedging. The package mirrors the catalog's
// concurrency design one level up the stack: the request hot path does one
// atomic pointer load and a lock-free ring lookup; all mutation (health
// transitions, resharding) happens aside and lands by pointer swap.
package router

import (
	"fmt"
	"math/bits"
)

// DefaultVNodes is the default virtual-node budget per shard. At this
// granularity a 4-shard ring keeps every shard's keyspace share within a
// couple percent of fair.
const DefaultVNodes = 160

// maxPartitions bounds the owner tables (two int16 entries per partition)
// regardless of how large a vnode budget the caller asks for.
const maxPartitions = 1 << 16

// Ring is an immutable consistent-hash ring over a shard set. Build one
// with BuildRing and share it freely: every method is read-only and safe
// for unsynchronized concurrent use, so a Ring can sit behind an atomic
// pointer and be swapped wholesale when membership changes (RCU).
//
// The layout is a fixed-partition ring (the Dynamo/Cassandra vnode
// design) rather than a sorted-point ring: the hash circle is divided
// into 2^shift equal partitions and each partition is owned by the shard
// with the highest rendezvous weight for it. A shard's virtual nodes are
// the partitions it wins — scattered pseudo-randomly around the circle —
// which preserves the consistent-hashing contract while beating a
// sorted-point ring on both fronts that matter here: balance concentrates
// binomially in the partition count instead of drifting with exponential
// arc lengths, and membership changes are *exactly* minimal (a partition
// changes owner only when its winning shard itself arrives or departs,
// so no key ever moves between surviving shards). Lookup2 is one hash and
// two table indexes: cheaper than a binary search, and allocation-free.
type Ring struct {
	shards []string
	owner  []int16 // per-partition owning shard index
	second []int16 // per-partition runner-up (replica successor), -1 if none
	shift  uint    // partition = keyhash >> (64 - shift)
}

// BuildRing constructs a ring over shards with at least vnodes virtual
// nodes (won partitions) per shard; vnodes <= 0 selects DefaultVNodes.
// Placement derives from shard names alone — configuration order is
// irrelevant — so independent routers given the same shard set agree on
// every tenant's home, and adding or removing one shard moves only that
// shard's partitions (~1/N of the keyspace).
func BuildRing(shards []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{shards: append([]string(nil), shards...)}
	if len(r.shards) == 0 {
		return r
	}
	// The partition count derives from the vnode budget alone — never
	// from the shard count. That invariant is what makes membership
	// changes minimal: the key→partition mapping is fixed, so adding or
	// removing a shard can only flip partition owners, never re-slice the
	// circle. 64 partitions per requested vnode (8192 at the 128-vnode
	// floor) puts a 4-shard ring's relative share deviation at ~1.9% for
	// one sigma, so the documented 15% balance bound sits beyond seven
	// sigmas instead of the ~2 a sorted-point ring manages.
	parts := nextPow2(64 * vnodes)
	if parts > maxPartitions {
		parts = maxPartitions
	}
	r.shift = uint(bits.TrailingZeros(uint(parts)))
	r.owner = make([]int16, parts)
	r.second = make([]int16, parts)

	bases := make([]uint64, len(r.shards))
	for i, s := range r.shards {
		bases[i] = mix64(hash64(s))
	}
	for p := 0; p < parts; p++ {
		ph := mix64(uint64(p)*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909)
		best, next := -1, -1
		var bestW, nextW uint64
		for i := range bases {
			w := mix64(bases[i] ^ ph)
			switch {
			case best == -1 || w > bestW || (w == bestW && r.shards[i] < r.shards[best]):
				next, nextW = best, bestW
				best, bestW = i, w
			case next == -1 || w > nextW || (w == nextW && r.shards[i] < r.shards[next]):
				next, nextW = i, w
			}
		}
		r.owner[p] = int16(best)
		r.second[p] = int16(next)
	}
	return r
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the shard set the ring was built over (do not mutate).
func (r *Ring) Shards() []string { return r.shards }

// Len reports the number of shards on the ring.
func (r *Ring) Len() int { return len(r.shards) }

// Lookup2 maps a key to its owning shard and the replica successor — the
// runner-up shard for the key's partition, the natural target for hedged
// requests and failover. successor is "" on a single-shard ring, and both
// are "" on an empty one. It allocates nothing — the routing hot path runs
// under an atomic pointer load, and a lookup is one hash and two table
// indexes.
func (r *Ring) Lookup2(key string) (primary, successor string) {
	if len(r.owner) == 0 {
		return "", ""
	}
	p := r.partition(key)
	primary = r.shards[r.owner[p]]
	if s := r.second[p]; s >= 0 {
		successor = r.shards[s]
	}
	return primary, successor
}

// partition maps a key to its partition index via the top hash bits.
func (r *Ring) partition(key string) int {
	return int(mix64(hash64(key)) >> (64 - r.shift))
}

// hash64 is FNV-1a over the key bytes: allocation-free on a string input
// (unlike hash/fnv, which costs a Write([]byte) conversion) and plenty for
// placement once finished through mix64.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: FNV's avalanche is weak in the high
// bits, and both partition selection and rendezvous weights live entirely
// off high-quality uniform values.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Placement summarizes the ring's keyspace shares for diagnostics:
// fraction of the hash circle owned per shard.
func (r *Ring) Placement() map[string]float64 {
	out := make(map[string]float64, len(r.shards))
	if len(r.owner) == 0 {
		return out
	}
	per := 1.0 / float64(len(r.owner))
	for _, o := range r.owner {
		out[r.shards[o]] += per
	}
	return out
}

// String renders a short description for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("Ring{%d shards, %d partitions}", len(r.shards), len(r.owner))
}
