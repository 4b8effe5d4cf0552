package catalog

import (
	"bytes"
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
