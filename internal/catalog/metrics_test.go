package catalog

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestInstrumentStoreAndTranslateSeries: the collector exports the store's
// save-failure, delete and WAL-replay counters and each tenant's summed
// translate latency, so the mean is seconds over translations.
func TestInstrumentStoreAndTranslateSeries(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	c := newDurableCatalog(t, st, nil)
	if _, err := c.Register(Registration{DB: shopDB("kept"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c, "kept")
	closeCatalog(t, c)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the WAL replays, then a second tenant comes and goes.
	st = openStore(t, dir)
	defer st.Close()
	c = newDurableCatalog(t, st, nil)
	defer closeCatalog(t, c)
	if _, err := c.Register(Registration{DB: shopDB("gone"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister("gone"); err != nil {
		t.Fatal(err)
	}
	tn, ok := c.Lookup("kept")
	if !ok {
		t.Fatal("recovered tenant not resolvable")
	}
	tn.RecordTranslate(1500 * time.Millisecond)
	tn.RecordTranslate(500 * time.Millisecond)

	reg := metrics.NewRegistry()
	c.Instrument(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"store_save_failures_total":                     0,
		"store_wal_append_failures_total":               0,
		"store_deletes_total":                           1,
		"store_wal_records_replayed":                    float64(st.Stats().WALReplayed),
		`tenant_translate_seconds_total{tenant="kept"}`: 2,
		`tenant_translations_total{tenant="kept"}`:      2,
	}
	for key, v := range want {
		if got, ok := samples[key]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, v)
		}
	}
	if samples["store_wal_records_replayed"] < 2 {
		t.Errorf("store_wal_records_replayed = %v, want the register and built records", samples["store_wal_records_replayed"])
	}
}

// TestTenantCacheSeriesMonotonic: a tenant's cache counters count its
// lifetime. Re-registration and the lazy reload build fresh caches and an
// unload publishes a stub with none; none of these may take a
// tenant_*_total sample backwards between scrapes.
func TestTenantCacheSeriesMonotonic(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	c := newDurableCatalog(t, st, func(cfg *Config) { cfg.IdleTTL = time.Hour })
	defer closeCatalog(t, c)
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	cacheKeys := []string{
		`tenant_llm_cache_hits_total{tenant="mono"}`, `tenant_llm_cache_misses_total{tenant="mono"}`,
		`tenant_plan_cache_hits_total{tenant="mono"}`, `tenant_plan_cache_misses_total{tenant="mono"}`,
	}

	// traffic translates the shop question twice (an LLM cache miss, then a
	// hit) and runs one query twice through the tenant's plan cache.
	traffic := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			translateShop(t, c, "mono")
			tn, _ := c.Lookup("mono")
			snap := tn.Snapshot()
			if _, err := snap.Plans.Exec(snap.DB, "SELECT label FROM item"); err != nil {
				t.Fatal(err)
			}
		}
	}
	var prev map[string]float64
	scrape := func(step string) {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseExposition(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for key, was := range prev {
			if strings.HasPrefix(key, "tenant_") && strings.Contains(key, "_total{") && samples[key] < was {
				t.Errorf("%s: %s went backwards: %v -> %v", step, key, was, samples[key])
			}
		}
		prev = samples
	}

	if _, err := c.Register(Registration{DB: shopDB("mono"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c, "mono")
	traffic()
	scrape("traffic")
	for _, key := range cacheKeys {
		if prev[key] == 0 {
			t.Fatalf("%s = 0 after traffic; the test drives no cache traffic", key)
		}
	}

	if _, err := c.Reregister(Registration{DB: shopDB("mono"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	scrape("re-register")
	waitReady(t, c, "mono")
	traffic()
	scrape("traffic after re-register")

	if n := c.EvictIdle(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("EvictIdle = %d, want the tenant unloaded", n)
	}
	if state, _ := tenantState(c, "mono"); state != StateStored {
		t.Fatalf("state after unload = %s, want stored", state)
	}
	scrape("unload")
	traffic() // the first Lookup reloads the stored snapshot
	scrape("reload")
	// Three rounds of traffic, each on fresh caches: one miss and one hit
	// per cache per round.
	for _, key := range cacheKeys {
		if prev[key] != 3 {
			t.Errorf("%s = %v at the end, want 3", key, prev[key])
		}
	}
}
