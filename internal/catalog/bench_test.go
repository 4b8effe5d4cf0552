package catalog

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/llm"
)

func benchCatalog(b *testing.B, cfg Config) *Catalog {
	b.Helper()
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.Close(ctx)
	})
	return c
}

// benchConfig is the catalog configuration every benchmark starts from.
// Called first, it also discards the default logger's output until the
// benchmark's last cleanup has run: registration, builds and evictions log
// a line per tenant, and under go test those lines would land between a
// benchmark's name and its numbers.
func benchConfig(b *testing.B) Config {
	prev, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.DiscardHandler))
	b.Cleanup(func() {
		slog.SetDefault(prev)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	return Config{Client: llm.NewSim(llm.ChatGPT), Base: testBase()}
}

// roomyBuilds is a build manager large enough that no measured registration
// hits ErrBusy. Pass it before benchCatalog so it shuts down after the
// catalog closes.
func roomyBuilds(b *testing.B) *jobs.Manager {
	m := jobs.NewManager(nil, jobs.Config{Runners: 8, Queue: 1 << 20, TTL: time.Minute})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// BenchmarkRegister measures the synchronous registration cost: validation,
// demo parsing, and warming-snapshot construction (the async model build is
// excluded by design — that is the point of the warming state).
func BenchmarkRegister(b *testing.B) {
	cfg := benchConfig(b)
	cfg.MaxTenants = 1 << 20 // no eviction churn in the measurement
	cfg.Jobs = roomyBuilds(b)
	c := benchCatalog(b, cfg)
	demos := shopDemos()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Register(Registration{DB: shopDB(fmt.Sprintf("bench%d", i)), Demos: demos}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReregisterSwap measures the snapshot-swap path: version bump,
// fingerprint invalidation and RCU publish over an existing tenant.
func BenchmarkReregisterSwap(b *testing.B) {
	cfg := benchConfig(b)
	cfg.MaxTenants = 1 << 20
	cfg.Jobs = roomyBuilds(b)
	c := benchCatalog(b, cfg)
	demos := shopDemos()
	if _, err := c.Register(Registration{DB: shopDB("t0"), Demos: demos}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reregister(Registration{DB: shopDB("t0"), Demos: demos}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegisterStorm measures registration under a small cap, where
// every admission LRU-evicts: the worst case for the over-cap eviction
// path. The single-pass victim selection keeps this O(tenants log tenants)
// per register; the old per-victim rescan was O(victims × tenants) under
// the writer lock.
func BenchmarkRegisterStorm(b *testing.B) {
	cfg := benchConfig(b)
	cfg.MaxTenants = 64
	cfg.Jobs = roomyBuilds(b)
	c := benchCatalog(b, cfg)
	demos := shopDemos()
	// Pre-fill to the cap so each measured register evicts.
	for i := 0; i < cfg.MaxTenants; i++ {
		if _, err := c.Register(Registration{DB: shopDB(fmt.Sprintf("fill%d", i)), Demos: demos}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Register(Registration{DB: shopDB(fmt.Sprintf("storm%d", i)), Demos: demos}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookup measures the hot-path tenant resolution: two atomic
// loads plus counter bumps, no locks.
func BenchmarkLookup(b *testing.B) {
	c := benchCatalog(b, benchConfig(b))
	for i := 0; i < 16; i++ {
		if _, err := c.Register(Registration{DB: shopDB(fmt.Sprintf("t%d", i)), Demos: shopDemos()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn, ok := c.Lookup("t7")
		if !ok || tn.Snapshot() == nil {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkLookupParallel16 drives the lookup hot path from 16 goroutines.
// Because the read side is lock-free (RCU snapshot pointers), per-op time
// should scale with available cores rather than collapse under contention —
// run with -race locally to double as the contention regression check.
func BenchmarkLookupParallel16(b *testing.B) {
	c := benchCatalog(b, benchConfig(b))
	for i := 0; i < 16; i++ {
		if _, err := c.Register(Registration{DB: shopDB(fmt.Sprintf("t%d", i)), Demos: shopDemos()}); err != nil {
			b.Fatal(err)
		}
	}
	var names [16]string
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	b.SetParallelism(16) // 16 goroutines per GOMAXPROCS unit of 1
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tn, ok := c.Lookup(names[i&15])
			i++
			if !ok || tn.Snapshot() == nil {
				b.Fatal("lookup failed")
			}
		}
	})
}

// BenchmarkOracle measures question->demo resolution, the per-request cost
// tenant-scoped translation adds on top of the pipeline.
func BenchmarkOracle(b *testing.B) {
	c := benchCatalog(b, benchConfig(b))
	snap, err := c.Register(Registration{DB: shopDB("oracle"), Demos: shopDemos()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := snap.Oracle("How many items does each shop sell?"); !ok {
			b.Fatal("oracle miss")
		}
	}
}
