package catalog

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlexec"
)

// Shared test substrate: training the fallback models once keeps the suite
// fast; the models are read-only after construction.
var (
	fbOnce sync.Once
	fb     *Fallback
)

func testFallback() *Fallback {
	fbOnce.Do(func() {
		c := spider.GenerateSmall(7, 0.03)
		fb = NewFallback(c.Train.Examples)
	})
	return fb
}

func testConfig() Config {
	return Config{
		Client:   llm.NewSim(llm.ChatGPT),
		Fallback: testFallback(),
	}
}

func newTestCatalog(t *testing.T, cfg Config) *Catalog {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return c
}

// shopDB and shopDemos are the tenant fixture internal/benchfix shares
// with the store tests; the catalog's tests and its gated benchmarks
// register it. extraCols varies the fingerprint across re-registrations.
func shopDB(name string, extraCols ...string) *schema.Database {
	return benchfix.TenantDB(name, extraCols...)
}

func shopDemos() []Demo {
	specs := benchfix.TenantDemos()
	out := make([]Demo, len(specs))
	for i, d := range specs {
		out[i] = Demo{NL: d.NL, SQL: d.SQL}
	}
	return out
}

func waitReady(t *testing.T, c *Catalog, name string) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		tn, ok := c.Lookup(name)
		if !ok {
			t.Fatalf("tenant %q vanished while warming", name)
		}
		if s := tn.Snapshot(); s.Ready() {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q never became ready", name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRegisterLifecycle(t *testing.T) {
	c := newTestCatalog(t, testConfig())
	snap, err := c.Register(Registration{DB: shopDB("shop1"), Demos: shopDemos()})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateWarming || snap.Version != 1 {
		t.Fatalf("fresh registration: state=%s version=%d", snap.State, snap.Version)
	}
	if snap.Built != (time.Time{}) {
		t.Error("warming snapshot must not carry a Built time")
	}

	// The warming snapshot translates immediately via fallback models.
	tn, ok := c.Lookup("SHOP1") // lookups are case-insensitive
	if !ok {
		t.Fatal("lookup failed")
	}
	e, ok := tn.Snapshot().Oracle("What are the labels of items sold by the shop named corner?")
	if !ok {
		t.Fatal("oracle did not match a verbatim demo question")
	}
	if res := tn.Snapshot().Pipeline.Translate(e); res.SQL == "" {
		t.Error("warming pipeline produced no SQL")
	}

	ready := waitReady(t, c, "shop1")
	if ready.Version != 1 || ready.Fingerprint != snap.Fingerprint {
		t.Errorf("ready snapshot disagrees: v%d fp=%x (want v1 fp=%x)", ready.Version, ready.Fingerprint, snap.Fingerprint)
	}
	if ready.Built.IsZero() {
		t.Error("ready snapshot missing Built time")
	}

	st := c.Stats()
	if st.Registered != 1 || st.BuildsDone != 1 {
		t.Errorf("counters: %+v", st)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].State != "ready" {
		t.Errorf("tenant stats: %+v", st.Tenants)
	}
}

func TestRegisterDuplicateAndReregister(t *testing.T) {
	c := newTestCatalog(t, testConfig())
	if _, err := c.Register(Registration{DB: shopDB("dup"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(Registration{DB: shopDB("dup"), Demos: shopDemos()}); err != ErrExists {
		t.Fatalf("duplicate register: %v, want ErrExists", err)
	}
	v1 := waitReady(t, c, "dup")

	snap, err := c.Reregister(Registration{DB: shopDB("dup", "color"), Demos: shopDemos()})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || snap.State != StateWarming {
		t.Fatalf("re-register: v%d state=%s", snap.Version, snap.State)
	}
	if snap.Fingerprint == v1.Fingerprint {
		t.Error("schema change must change the fingerprint")
	}
	v2 := waitReady(t, c, "dup")
	if v2.Version != 2 {
		t.Fatalf("ready snapshot is v%d, want v2", v2.Version)
	}
	st := c.Stats()
	if st.Reregistered != 1 {
		t.Errorf("counters: %+v", st)
	}
	if got := st.BuildsDone + st.BuildsStale; got != 2 {
		t.Errorf("builds done+stale = %d, want 2", got)
	}
}

func TestReregisterInvalidatesSharedPlans(t *testing.T) {
	c := newTestCatalog(t, testConfig())
	db := shopDB("plans")
	if _, err := c.Register(Registration{DB: db, Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	// Seed the shared cache with a plan keyed by the v1 fingerprint (the
	// eval/adaption paths do this during translation).
	if _, err := sqlexec.Shared.Exec(db, "SELECT COUNT(*) FROM item"); err != nil {
		t.Fatal(err)
	}
	before := sqlexec.Shared.Stats().Size
	if _, err := c.Reregister(Registration{DB: shopDB("plans", "color"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if after := sqlexec.Shared.Stats().Size; after >= before {
		t.Errorf("shared plan cache size %d -> %d; expected the retired fingerprint's plans to be invalidated", before, after)
	}
}

func TestValidation(t *testing.T) {
	c := newTestCatalog(t, testConfig())
	cases := []struct {
		name string
		reg  Registration
	}{
		{"nil db", Registration{}},
		{"no demos", Registration{DB: shopDB("v1")}},
		{"bad demo sql", Registration{DB: shopDB("v2"), Demos: []Demo{{NL: "q", SQL: "SELEC nope"}}}},
		{"empty question", Registration{DB: shopDB("v3"), Demos: []Demo{{NL: " ", SQL: "SELECT id FROM shop"}}}},
		// A name with a path separator would be unaddressable via the
		// /v1/databases/{name} routes.
		{"unroutable name", Registration{DB: shopDB("a/b"), Demos: shopDemos()}},
		{"dotdot name", Registration{DB: shopDB(".."), Demos: shopDemos()}},
	}
	for _, tc := range cases {
		if _, err := c.Register(tc.reg); err == nil {
			t.Errorf("%s: registration unexpectedly succeeded", tc.name)
		}
	}
	if c.Len() != 0 {
		t.Errorf("failed registrations left %d tenants behind", c.Len())
	}

	dupTable := shopDB("v4")
	dupTable.Tables = append(dupTable.Tables, dupTable.Tables[0])
	badFK := shopDB("v5")
	badFK.ForeignKeys = append(badFK.ForeignKeys, schema.ForeignKey{FromTable: "item", FromColumn: "id", ToTable: "ghost", ToColumn: "id"})
	badRow := shopDB("v6")
	badRow.Tables[0].Rows = append(badRow.Tables[0].Rows, []schema.Value{schema.N(9)})
	for name, db := range map[string]*schema.Database{"dup table": dupTable, "bad fk": badFK, "bad row": badRow} {
		if err := ValidateDatabase(db); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
	if err := ValidateDatabase(shopDB("ok")); err != nil {
		t.Errorf("valid db rejected: %v", err)
	}
}

func TestOracleMatching(t *testing.T) {
	c := newTestCatalog(t, testConfig())
	snap, err := c.Register(Registration{DB: shopDB("oracle"), Demos: shopDemos()})
	if err != nil {
		t.Fatal(err)
	}
	// Verbatim and light paraphrase both resolve.
	if _, ok := snap.Oracle("List all item labels ordered by price."); !ok {
		t.Error("verbatim question did not resolve")
	}
	if e, ok := snap.Oracle("list the item labels ordered by price"); !ok || e.GoldSQL == "" {
		t.Error("paraphrase did not resolve")
	}
	// An unrelated question must not grab a random gold query.
	if _, ok := snap.Oracle("what is the weather on mars"); ok {
		t.Error("unrelated question resolved to an oracle")
	}
}

func TestLRUEvictionAtCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTenants = 2
	c := newTestCatalog(t, cfg)
	for i := 0; i < 2; i++ {
		if _, err := c.Register(Registration{DB: shopDB(fmt.Sprintf("cap%d", i)), Demos: shopDemos()}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch cap1 so cap0 is the LRU victim.
	time.Sleep(time.Millisecond)
	if _, ok := c.Lookup("cap1"); !ok {
		t.Fatal("cap1 missing")
	}
	if _, err := c.Register(Registration{DB: shopDB("cap2"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	if _, ok := c.Lookup("cap0"); ok {
		t.Error("cap0 should have been LRU-evicted")
	}
	for _, name := range []string{"cap1", "cap2"} {
		if _, ok := c.Lookup(name); !ok {
			t.Errorf("%s missing after eviction", name)
		}
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Errorf("evicted=%d, want 1", st.Evicted)
	}
}

func TestIdleEviction(t *testing.T) {
	cfg := testConfig()
	cfg.IdleTTL = time.Hour
	c := newTestCatalog(t, cfg)
	if _, err := c.Register(Registration{DB: shopDB("idle"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	// Idle eviction only applies to ready tenants (warming ones are exempt
	// so a slow build queue can't discard in-flight training).
	waitReady(t, c, "idle")
	if n := c.EvictIdle(time.Now()); n != 0 {
		t.Fatalf("fresh tenant evicted: %d", n)
	}
	if n := c.EvictIdle(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("idle tenant not evicted: %d", n)
	}
	if _, ok := c.Lookup("idle"); ok {
		t.Error("evicted tenant still resolvable")
	}
}

func TestDeregister(t *testing.T) {
	c := newTestCatalog(t, testConfig())
	if _, err := c.Register(Registration{DB: shopDB("gone"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister("gone"); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister("gone"); err != ErrNotFound {
		t.Fatalf("double deregister: %v, want ErrNotFound", err)
	}
	if _, ok := c.Lookup("gone"); ok {
		t.Error("deregistered tenant still resolvable")
	}
}

// TestInFlightSnapshotSurvivesSwap pins the RCU contract: a request holding
// a snapshot keeps a fully consistent view across a re-registration.
func TestInFlightSnapshotSurvivesSwap(t *testing.T) {
	c := newTestCatalog(t, testConfig())
	if _, err := c.Register(Registration{DB: shopDB("rcu"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	tn, _ := c.Lookup("rcu")
	held := tn.Snapshot() // the in-flight request's view
	if _, err := c.Reregister(Registration{DB: shopDB("rcu", "color"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if held.Version != 1 || held.DB.Table("item").HasColumn("color") {
		t.Fatal("held snapshot mutated by re-registration")
	}
	// The held pipeline still translates against the old schema.
	e, ok := held.Oracle("List all item labels ordered by price.")
	if !ok {
		t.Fatal("held snapshot lost its demos")
	}
	if res := held.Pipeline.Translate(e); res.SQL == "" {
		t.Error("held snapshot pipeline broken after swap")
	}
	if now := tn.Snapshot(); now.Version != 2 {
		t.Errorf("new lookups see v%d, want v2", now.Version)
	}
}

// TestConcurrentChaos exercises register/translate/evict/re-register under
// the race detector: the hot path must stay safe against every writer.
func TestConcurrentChaos(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTenants = 8
	c := newTestCatalog(t, cfg)
	if _, err := c.Register(Registration{DB: shopDB("chaos"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}

	const writers, readers, iters = 4, 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("chaos-w%d-%d", w, i%3)
				switch i % 4 {
				case 0, 1:
					c.Reregister(Registration{DB: shopDB(name), Demos: shopDemos()})
				case 2:
					c.Reregister(Registration{DB: shopDB("chaos", fmt.Sprintf("c%d_%d", w, i)), Demos: shopDemos()})
				case 3:
					c.Deregister(name)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tn, ok := c.Lookup("chaos")
				if !ok {
					continue // may be LRU-evicted while writers churn past the cap
				}
				snap := tn.Snapshot()
				if e, ok := snap.Oracle("How many items does each shop sell?"); ok {
					if res := snap.Pipeline.Translate(e); res.SQL == "" {
						t.Error("empty translation")
						return
					}
					tn.RecordTranslate(time.Millisecond)
				}
				c.Stats()
			}
		}()
	}
	wg.Wait()
	if c.Len() > cfg.MaxTenants {
		t.Errorf("len=%d exceeds cap %d", c.Len(), cfg.MaxTenants)
	}
}

func TestBuildQueueSaturation(t *testing.T) {
	m := jobs.NewManager(nil, jobs.Config{Runners: 1, Queue: 1})
	t.Cleanup(func() { // runs after the catalog's own cleanup closes it
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("build manager shutdown: %v", err)
		}
	})
	cfg := testConfig()
	cfg.Jobs = m
	c := newTestCatalog(t, cfg)
	// Flood registrations; at least one must hit ErrBusy with queue=1, and
	// every ErrBusy rollback must leave no half-registered tenant behind.
	var busy, okCount int
	for i := 0; i < 12; i++ {
		_, err := c.Register(Registration{DB: shopDB(fmt.Sprintf("flood%d", i)), Demos: shopDemos()})
		switch err {
		case nil:
			okCount++
		case ErrBusy:
			busy++
		default:
			t.Fatal(err)
		}
	}
	if okCount == 0 {
		t.Error("no registration succeeded")
	}
	if c.Len() != okCount {
		t.Errorf("len=%d but %d registrations succeeded", c.Len(), okCount)
	}
}

// TestExternalBuildManagerShutdown pins the error mapping: registration
// against a draining build manager is a retry-elsewhere condition
// (ErrClosed → 503), not a client error.
func TestExternalBuildManagerShutdown(t *testing.T) {
	m := jobs.NewManager(nil, jobs.Config{Runners: 1, Queue: 4})
	cfg := testConfig()
	cfg.Jobs = m
	c := newTestCatalog(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(Registration{DB: shopDB("late"), Demos: shopDemos()}); err != ErrClosed {
		t.Fatalf("register against drained build manager: %v, want ErrClosed", err)
	}
	if c.Len() != 0 {
		t.Errorf("failed registration left %d tenants", c.Len())
	}
}

func TestClosedCatalogRejectsWrites(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(Registration{DB: shopDB("pre"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(Registration{DB: shopDB("post"), Demos: shopDemos()}); err != ErrClosed {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
	// Reads keep working for requests already holding the handler.
	if _, ok := c.Lookup("pre"); !ok {
		t.Error("lookup broken after close")
	}
	if err := c.Close(ctx); err != nil {
		t.Errorf("second close: %v", err)
	}
}
