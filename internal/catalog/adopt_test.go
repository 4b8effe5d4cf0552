package catalog

// Resharding hand-off coverage: a tenant trained on one shard is adopted
// by another through the shared store — trained models and all, no
// re-training — and shared-mode removal semantics keep snapshot files
// alive across evictions while deregistration still destroys them.

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func openSharedStore(t *testing.T, dir, instance string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Instance: instance})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdoptStoredHandsOffTrainedState: shard0 trains a tenant; shard1
// adopts it from the shared directory and serves byte-identical
// translations with zero builds of its own. The adoption also lands in
// shard1's WAL, so shard1's restart recovers the tenant like any other.
func TestAdoptStoredHandsOffTrainedState(t *testing.T) {
	dir := t.TempDir()

	st0 := openSharedStore(t, dir, "shard0")
	c0 := newDurableCatalog(t, st0, nil)
	if _, err := c0.Register(Registration{DB: shopDB("handoff"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c0, "handoff")
	want := translateShop(t, c0, "handoff")
	closeCatalog(t, c0)
	if err := st0.Close(); err != nil {
		t.Fatal(err)
	}

	st1 := openSharedStore(t, dir, "shard1")
	defer st1.Close()
	c1 := newDurableCatalog(t, st1, nil)
	defer closeCatalog(t, c1)
	if _, ok := c1.Lookup("handoff"); ok {
		t.Fatal("shard1 has no WAL history for the tenant; Lookup should miss")
	}

	snap, err := c1.AdoptStored("handoff")
	if err != nil {
		t.Fatalf("AdoptStored: %v", err)
	}
	if snap.State != StateReady {
		t.Fatalf("adopted snapshot state = %s, want ready (models travel with the file)", snap.State)
	}
	if got := translateShop(t, c1, "handoff"); got != want {
		t.Fatalf("translation diverged across hand-off:\n  shard0: %s\n  shard1: %s", want, got)
	}
	cs := c1.Stats()
	if cs.Adopted != 1 {
		t.Errorf("adopted counter = %d, want 1", cs.Adopted)
	}
	if cs.BuildsDone != 0 {
		t.Errorf("builds_done = %d on the adopting shard, want 0 (no re-training)", cs.BuildsDone)
	}

	// Idempotent: a second adopt returns the live tenant without touching
	// the counter.
	if _, err := c1.AdoptStored("handoff"); err != nil {
		t.Fatalf("repeat AdoptStored: %v", err)
	}
	if got := c1.Stats().Adopted; got != 1 {
		t.Errorf("repeat adopt bumped counter to %d", got)
	}

	// The adoption is durable on shard1: close and reopen its instance.
	closeCatalog(t, c1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st1b := openSharedStore(t, dir, "shard1")
	defer st1b.Close()
	c1b := newDurableCatalog(t, st1b, nil)
	defer closeCatalog(t, c1b)
	if got := translateShop(t, c1b, "handoff"); got != want {
		t.Fatalf("adopted tenant lost across shard1 restart: %s vs %s", got, want)
	}
}

// TestAdoptStoredMisses: no snapshot, bad names, and exclusive-mode stores
// all surface ErrNotFound rather than inventing tenants.
func TestAdoptStoredMisses(t *testing.T) {
	dir := t.TempDir()
	st := openSharedStore(t, dir, "shard0")
	defer st.Close()
	c := newDurableCatalog(t, st, nil)
	defer closeCatalog(t, c)
	if _, err := c.AdoptStored("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("AdoptStored(ghost) = %v, want ErrNotFound", err)
	}
	if _, err := c.AdoptStored("../sneaky"); !errors.Is(err, ErrNotFound) {
		t.Errorf("AdoptStored with bad name = %v, want ErrNotFound", err)
	}

	// Exclusive-mode store: adoption is a shared-mode concept.
	stx := openStore(t, t.TempDir())
	defer stx.Close()
	cx := newDurableCatalog(t, stx, nil)
	defer closeCatalog(t, cx)
	if _, err := cx.AdoptStored("anything"); !errors.Is(err, ErrNotFound) {
		t.Errorf("AdoptStored on exclusive store = %v, want ErrNotFound", err)
	}
}

// TestSharedModeEvictionPreservesSnapshot: on a shared store, cap eviction
// keeps the persisted file (another shard — or this one, later — may adopt
// it), while explicit deregistration destroys it.
func TestSharedModeEvictionPreservesSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openSharedStore(t, dir, "shard0")
	defer st.Close()
	c := newDurableCatalog(t, st, func(cfg *Config) { cfg.MaxTenants = 1 })
	defer closeCatalog(t, c)

	if _, err := c.Register(Registration{DB: shopDB("keep-a"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c, "keep-a")
	want := translateShop(t, c, "keep-a")
	// Registering a second tenant over cap 1 evicts keep-a.
	if _, err := c.Register(Registration{DB: shopDB("keep-b"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("keep-a"); ok {
		t.Fatal("keep-a should be evicted")
	}
	files, err := filepath.Glob(filepath.Join(dir, "snapshots", "keep-a-*.snap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("shared-mode eviction deleted the persisted snapshot (files=%v err=%v)", files, err)
	}

	// The evicted tenant adopts straight back — trained state intact.
	snap, err := c.AdoptStored("keep-a")
	if err != nil {
		t.Fatalf("re-adopt after eviction: %v", err)
	}
	if snap.State != StateReady {
		t.Fatalf("re-adopted state = %s, want ready", snap.State)
	}
	if got := translateShop(t, c, "keep-a"); got != want {
		t.Fatalf("translation changed across evict+adopt: %s vs %s", got, want)
	}

	// Deregistration is the one removal that destroys shared files.
	if err := c.Deregister("keep-a"); err != nil {
		t.Fatal(err)
	}
	files, _ = filepath.Glob(filepath.Join(dir, "snapshots", "keep-a-*.snap"))
	if len(files) != 0 {
		t.Errorf("deregister left snapshot files behind: %v", files)
	}
	if _, err := c.AdoptStored("keep-a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("adopt after deregister = %v, want ErrNotFound", err)
	}
}
