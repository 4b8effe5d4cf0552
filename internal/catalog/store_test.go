package catalog

// Durability and lifecycle-bugfix coverage: WAL recovery across a
// simulated restart, lazy loading, the memory-budget accountant,
// fingerprint refcounting of the shared plan cache, warming-tenant idle
// exemption, and the deregister-vs-build race.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/store"
)

const shopQuestion = "What are the labels of items sold by the shop named corner?"

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newDurableCatalog builds a catalog over an open store. The caller closes
// both (restart tests re-open the same directory mid-test).
func newDurableCatalog(t *testing.T, st *store.Store, mutate func(*Config)) *Catalog {
	t.Helper()
	cfg := testConfig()
	cfg.Store = st
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func closeCatalog(t *testing.T, c *Catalog) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// wedgedBuilds is an external build manager whose single runner a blocker
// job holds until release is called, so builds submitted to it stay
// queued: a free runner can finish a tiny tenant's build before the test
// looks at the warming state. The manager shuts down when the test ends,
// after the deferred catalog closes.
func wedgedBuilds(t *testing.T) (jm *jobs.Manager, release func()) {
	t.Helper()
	gate := make(chan struct{})
	jm = jobs.NewManager(nil, jobs.Config{Runners: 1, Queue: 8, TTL: time.Minute})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := jm.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	blocker := func(ctx context.Context) error {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil
	}
	if _, err := jm.Submit(jobs.Request{Label: "blocker", Run: blocker}); err != nil {
		t.Fatal(err)
	}
	return jm, release
}

// translateShop resolves the tenant and translates the shared shop
// question; the returned SQL must be byte-identical across restarts.
func translateShop(t *testing.T, c *Catalog, name string) string {
	t.Helper()
	tn, ok := c.Lookup(name)
	if !ok {
		t.Fatalf("tenant %q not resolvable", name)
	}
	snap := tn.Snapshot()
	e, ok := snap.Oracle(shopQuestion)
	if !ok {
		t.Fatalf("oracle miss for %q", shopQuestion)
	}
	return snap.Pipeline.Translate(e).SQL
}

// tenantState peeks at the published snapshot state without touching
// lastUsed or triggering a lazy load.
func tenantState(c *Catalog, name string) (State, bool) {
	tn, ok := (*c.tenants.Load())[strings.ToLower(name)]
	if !ok {
		return "", false
	}
	return tn.snap.Load().State, true
}

func TestDurableRestartServesReadyWithoutRetraining(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	c := newDurableCatalog(t, st, nil)
	if _, err := c.Register(Registration{DB: shopDB("wal1"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c, "wal1")
	want := translateShop(t, c, "wal1")
	if ss := st.Stats(); ss.Saves != 2 || ss.WALAppends != 2 {
		t.Fatalf("expected registration+built saves and WAL records, got %+v", ss)
	}
	closeCatalog(t, c)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same directory replays the WAL.
	st2 := openStore(t, dir)
	defer st2.Close()
	c2 := newDurableCatalog(t, st2, nil)
	defer closeCatalog(t, c2)
	if got := st2.Stats().Recovered; got != 1 {
		t.Fatalf("recovered %d tenants, want 1", got)
	}
	// Before the first lookup the tenant is a stored stub: no load has
	// happened, no schema is resident.
	if state, ok := tenantState(c2, "wal1"); !ok || state != StateStored {
		t.Fatalf("pre-lookup state = %v, %v; want stored stub", state, ok)
	}
	snaps := c2.List()
	if len(snaps) != 1 || snaps[0].DB != nil {
		t.Fatalf("stub must not carry a schema: %+v", snaps)
	}

	tn, ok := c2.Lookup("wal1")
	if !ok {
		t.Fatal("recovered tenant not resolvable")
	}
	// The first lookup must publish ready directly from the persisted
	// models — no warming phase, no build.
	snap := tn.Snapshot()
	if snap.State != StateReady {
		t.Fatalf("post-lookup state = %s, want ready with zero re-training", snap.State)
	}
	if snap.Version != 1 || snap.Built.IsZero() {
		t.Fatalf("recovered snapshot lost identity: %+v", snap)
	}
	if st2.Stats().Loads != 1 {
		t.Fatalf("loads = %d, want exactly 1 lazy load", st2.Stats().Loads)
	}
	if bd := c2.Stats().BuildsDone; bd != 0 {
		t.Fatalf("builds_done = %d after recovery of a built tenant, want 0", bd)
	}
	if got := translateShop(t, c2, "wal1"); got != want {
		t.Fatalf("translation diverged across restart:\n  before: %s\n  after:  %s", want, got)
	}
	// Stats and the second lookup stay on the loaded snapshot (no reload).
	c2.Lookup("wal1")
	if st2.Stats().Loads != 1 {
		t.Error("second lookup reloaded the snapshot")
	}
}

func TestRestartRecoversUnbuiltTenantAndRebuilds(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// The tenant's build never runs, simulating a crash mid-queue.
	jm, _ := wedgedBuilds(t)
	c := newDurableCatalog(t, st, func(cfg *Config) { cfg.Jobs = jm })
	if _, err := c.Register(Registration{DB: shopDB("unbuilt"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if state, _ := tenantState(c, "unbuilt"); state != StateWarming {
		t.Fatalf("state = %s, want warming (build wedged)", state)
	}
	closeCatalog(t, c)
	// Drain with the blocker still holding the runner and an expired
	// context: the queued build is cancelled before it can run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := jm.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("shutdown: %v, want context.Canceled", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	// The resubmitted build queues behind a blocker until the warming state
	// has been checked.
	jm2, release := wedgedBuilds(t)
	c2 := newDurableCatalog(t, st2, func(cfg *Config) { cfg.Jobs = jm2 })
	defer closeCatalog(t, c2)
	tn, ok := c2.Lookup("unbuilt")
	if !ok {
		t.Fatal("recovered tenant not resolvable")
	}
	// The registration-time snapshot carries no models: the tenant comes
	// back warming (serving on the base pipeline's models) and its build is
	// resubmitted.
	if s := tn.Snapshot(); s.State != StateWarming {
		t.Fatalf("state = %s, want warming (models were never persisted)", s.State)
	}
	release()
	snap := waitReady(t, c2, "unbuilt")
	if snap.Version != 1 {
		t.Fatalf("version = %d, want 1", snap.Version)
	}
	if bd := c2.Stats().BuildsDone; bd != 1 {
		t.Fatalf("builds_done = %d, want exactly the one resubmitted build", bd)
	}
	// The rebuild persisted its models: a further restart loads ready.
	closeCatalog(t, c2)
	st3 := openStore(t, dir)
	defer st3.Close()
	c3 := newDurableCatalog(t, st3, nil)
	defer closeCatalog(t, c3)
	tn3, ok := c3.Lookup("unbuilt")
	if !ok || tn3.Snapshot().State != StateReady {
		t.Fatal("tenant not ready after rebuild + restart")
	}
}

// TestWarmingExemptFromIdleEviction is the regression for the
// warming-eviction bug: a tenant whose build waits in the queue longer
// than IdleTTL must survive the janitor, and its completed build must
// refresh recency so it is not evicted the moment training lands.
func TestWarmingExemptFromIdleEviction(t *testing.T) {
	jm, release := wedgedBuilds(t)
	cfg := testConfig()
	cfg.Jobs = jm
	cfg.IdleTTL = time.Hour
	c := newTestCatalog(t, cfg)
	// Synthetic clock: the catalog's notion of now is the atomically
	// advanced instant, so build-completion timestamps are controlled.
	t0 := time.Now()
	var clock atomic.Int64
	clock.Store(t0.UnixNano())
	c.now = func() time.Time { return time.Unix(0, clock.Load()) }

	if _, err := c.Register(Registration{DB: shopDB("warmy"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	// Two hours pass while the build sits behind the blocker. The old code
	// evicted here, silently discarding the queued training.
	if n := c.EvictIdle(t0.Add(2 * time.Hour)); n != 0 {
		t.Fatalf("warming tenant idle-evicted (%d reclaimed)", n)
	}
	if state, ok := tenantState(c, "warmy"); !ok || state != StateWarming {
		t.Fatalf("tenant gone or not warming: %v, %v", state, ok)
	}

	// Training lands at t0+2h (clock-advanced), refreshing recency.
	clock.Store(t0.Add(2 * time.Hour).UnixNano())
	release()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if state, ok := tenantState(c, "warmy"); ok && state == StateReady {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("build never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cutoff t0+2h: without the completion touch lastUsed would still be
	// t0 and the fresh build would be evicted immediately.
	if n := c.EvictIdle(t0.Add(3 * time.Hour)); n != 0 {
		t.Fatalf("just-built tenant idle-evicted (%d reclaimed): build completion must refresh recency", n)
	}
	// A genuinely idle ready tenant still goes.
	if n := c.EvictIdle(t0.Add(4 * time.Hour)); n != 1 {
		t.Fatalf("idle ready tenant not evicted: %d", n)
	}
}

// TestLifecycleWarmingReadyEvictReregister walks one tenant through the
// full lifecycle, asserting plan-cache and store state at each step.
func TestLifecycleWarmingReadyEvictReregister(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	t.Cleanup(func() { st.Close() }) // after the build manager drains
	// Builds wait behind a blocker until step 1 has been checked.
	jm, release := wedgedBuilds(t)
	c := newDurableCatalog(t, st, func(cfg *Config) { cfg.MaxTenants = 1; cfg.Jobs = jm })
	defer closeCatalog(t, c)

	// Step 1: register -> warming, registration snapshot + WAL record.
	db := shopDB("life")
	snap, err := c.Register(Registration{DB: db, Demos: shopDemos()})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateWarming {
		t.Fatalf("state = %s, want warming", snap.State)
	}
	if ss := st.Stats(); ss.Saves != 1 || ss.WALAppends != 1 || ss.Snapshots != 1 {
		t.Fatalf("after register: %+v", ss)
	}
	release()

	// Step 2: ready -> models persisted, WAL 'built' record.
	waitReady(t, c, "life")
	if ss := st.Stats(); ss.Saves != 2 || ss.WALAppends != 2 {
		t.Fatalf("after build: %+v", ss)
	}

	// Step 3: cap eviction (a second registration over MaxTenants=1)
	// removes the tenant durably: snapshot file deleted, WAL eviction
	// logged.
	if _, err := c.Register(Registration{DB: shopDB("usurper", "extra"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("life"); ok {
		t.Fatal("evicted tenant still resolvable")
	}
	if ss := st.Stats(); ss.Deletes != 1 || ss.Snapshots != 1 {
		t.Fatalf("after eviction: %+v", ss)
	}
	if cs := c.Stats(); cs.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", cs.Evicted)
	}

	// Step 4: re-register starts a fresh version-1 life with its own
	// snapshot file and WAL history.
	snap, err = c.Register(Registration{DB: shopDB("life"), Demos: shopDemos()})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateWarming || snap.Version != 1 {
		t.Fatalf("re-registered snapshot: %+v", snap)
	}
	waitReady(t, c, "life")
	// MaxTenants=1: re-registering life evicted the usurper in turn.
	if len(c.List()) != 1 {
		t.Fatalf("len = %d, want 1 under cap", len(c.List()))
	}
	if ss := st.Stats(); ss.Snapshots != 1 {
		t.Fatalf("final store state: %+v", ss)
	}
}

func TestMemoryBudgetUnloadsLRU(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	// A 1-byte budget: any resident store-backed tenant is over budget, so
	// every load/build unloads all ready tenants except the protected one.
	c := newDurableCatalog(t, st, func(cfg *Config) { cfg.MemoryBudget = 1 })
	defer closeCatalog(t, c)

	if _, err := c.Register(Registration{DB: shopDB("mem-a"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c, "mem-a")
	want := translateShop(t, c, "mem-a")
	if _, err := c.Register(Registration{DB: shopDB("mem-b", "extra"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c, "mem-b")

	// mem-b's build completion pushed residency over budget: mem-a (LRU)
	// was unloaded back to a stored stub.
	if state, _ := tenantState(c, "mem-a"); state != StateStored {
		t.Fatalf("mem-a state = %s, want stored after budget pressure", state)
	}
	if u := c.Stats().Unloads; u < 1 {
		t.Fatalf("unloads = %d, want >= 1", u)
	}

	// Looking mem-a up reloads it (identically) and pressures mem-b out.
	if got := translateShop(t, c, "mem-a"); got != want {
		t.Fatalf("translation diverged across unload/reload:\n  before: %s\n  after:  %s", want, got)
	}
	if state, _ := tenantState(c, "mem-a"); state != StateReady {
		t.Fatal("mem-a not resident after lookup")
	}
	if state, _ := tenantState(c, "mem-b"); state != StateStored {
		t.Fatalf("mem-b still resident past budget")
	}
	if loads := st.Stats().Loads; loads < 1 {
		t.Fatalf("loads = %d, want >= 1", loads)
	}
}

func TestCorruptSnapshotDropsTenantDurably(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	c := newDurableCatalog(t, st, nil)
	if _, err := c.Register(Registration{DB: shopDB("rot"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c, "rot")
	closeCatalog(t, c)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "snapshots", "*.snap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files: %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	c2 := newDurableCatalog(t, st2, nil)
	if _, ok := c2.Lookup("rot"); ok {
		t.Fatal("tenant with a corrupt snapshot must not resolve")
	}
	if len(c2.List()) != 0 {
		t.Fatalf("len = %d after corrupt-load drop, want 0", len(c2.List()))
	}
	if lf := st2.Stats().LoadFailures; lf != 1 {
		t.Fatalf("load_failures = %d, want 1", lf)
	}
	closeCatalog(t, c2)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// The drop is durable: the WAL now carries the eviction, so a further
	// restart does not resurrect the broken tenant.
	st3 := openStore(t, dir)
	defer st3.Close()
	if live := st3.Recovered(); len(live) != 0 {
		t.Fatalf("corrupt tenant resurrected: %+v", live)
	}
}

// TestDeregisterRacesCompletingBuild hammers the gen/snap interleavings
// between Deregister, Reregister and a completing build under -race, then
// checks the WAL replay agrees with the surviving in-memory tenant set.
func TestDeregisterRacesCompletingBuild(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	c := newDurableCatalog(t, st, nil)

	const rounds = 20
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("race%d", i)
		if _, err := c.Register(Registration{DB: shopDB(name), Demos: shopDemos()}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Races the build publishing the ready snapshot.
			if err := c.Deregister(name); err != nil && err != ErrNotFound {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			// Sometimes a replacement lands first; any terminal state is
			// fine, the invariants below must hold regardless.
			if i%3 == 0 {
				_, err := c.Reregister(Registration{DB: shopDB(name, "extra"), Demos: shopDemos()})
				if err != nil && err != ErrNotFound && err != ErrBusy {
					t.Error(err)
				}
			}
		}()
		wg.Wait()
	}

	// Drain all builds, then verify counter conservation: every submitted
	// build resolved exactly one way.
	closeCatalog(t, c)
	stats := c.Stats()
	submitted := stats.Registered + stats.Reregistered
	resolved := stats.BuildsDone + stats.BuildsStale + stats.BuildsFailed
	if submitted != resolved {
		t.Fatalf("builds leaked: %d submitted, %d resolved (%+v)", submitted, resolved, stats)
	}
	live := map[string]bool{}
	for _, s := range c.List() {
		live[strings.ToLower(s.Name)] = true
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The WAL must replay to exactly the surviving tenant set.
	st2 := openStore(t, dir)
	defer st2.Close()
	recovered := map[string]bool{}
	for _, r := range st2.Recovered() {
		recovered[r.Key] = true
	}
	if len(recovered) != len(live) {
		t.Fatalf("WAL replay disagrees with memory: %v vs %v", recovered, live)
	}
	for k := range live {
		if !recovered[k] {
			t.Fatalf("live tenant %q missing from WAL replay (%v)", k, recovered)
		}
	}
}
