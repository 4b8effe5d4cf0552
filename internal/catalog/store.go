package catalog

// Durability glue between the catalog and internal/store: WAL recovery at
// construction, lazy loading of stored stubs on first Lookup, and the
// memory-budget accountant that unloads idle resident tenants back to
// stubs. The mutation-side WAL appends and snapshot saves live on the
// writer paths in catalog.go; everything here is about getting persisted
// state back into serving shape.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/classifier"
	"repro/internal/jobs"
	"repro/internal/predictor"
	"repro/internal/store"
)

// recoverFromStore replays the store's WAL-recovered tenant set into
// stored stubs: each survives as a map entry holding only its identity
// (name, version, fingerprint, registration time) until the first Lookup
// loads the persisted snapshot. Runs once from New, before any traffic.
func (c *Catalog) recoverFromStore() {
	recovered := c.cfg.Store.Recovered()
	if len(recovered) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(tenantMap, len(recovered))
	for _, r := range recovered {
		t := &Tenant{key: r.Key}
		t.lastUsed.Store(r.RegisteredUnix)
		if size, ok := c.cfg.Store.SnapshotSize(r.Key); ok {
			t.storeBytes.Store(size)
		}
		stub := &Snapshot{
			Name:        r.Name,
			Version:     r.Version,
			State:       StateStored,
			Fingerprint: r.Fingerprint,
			Registered:  time.Unix(0, r.RegisteredUnix),
		}
		t.publish(stub)
		m[r.Key] = t
		c.acquireFPLocked(r.Fingerprint)
	}
	c.tenants.Store(&m)
	// A cap lowered across the restart is enforced immediately (and
	// durably) rather than on the next registration.
	c.evictOverCapLocked(nil)
}

// AdoptStored takes over a tenant whose trained state another shard
// persisted to the shared store: the resharding hand-off. When the ring
// moves a tenant here (a shard died, or the shard set changed), this shard
// has no WAL history for it — but the previous owner's fingerprint-
// addressed snapshot is sitting in the common snapshots directory. Adopt
// finds the newest persisted version, registers it in this catalog's own
// WAL as a stored stub, and loads it into serving shape — trained models
// and all, zero re-training. Idempotent: an already-present tenant is
// returned as-is. Returns ErrNotFound when no snapshot exists for the
// name (the caller falls back to a plain 404 → client re-registration).
func (c *Catalog) AdoptStored(name string) (*Snapshot, error) {
	if c.cfg.Store == nil || !c.cfg.Store.Shared() {
		return nil, ErrNotFound
	}
	key := strings.ToLower(name)
	if key == "" || !validName(key) {
		return nil, ErrNotFound
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if t, ok := (*c.tenants.Load())[key]; ok {
		c.mu.Unlock()
		if t.snap.Load().State == StateStored && !c.ensureLoaded(t) {
			return nil, ErrNotFound
		}
		return t.Snapshot(), nil
	}
	version, fp, ok := c.cfg.Store.FindSnapshot(key)
	if !ok {
		c.mu.Unlock()
		return nil, ErrNotFound
	}
	t := &Tenant{key: key}
	t.lastUsed.Store(c.now().UnixNano())
	stub := &Snapshot{
		Name:        key,
		Version:     version,
		State:       StateStored,
		Fingerprint: fp,
		Registered:  c.now(),
	}
	t.publish(stub)
	c.acquireFPLocked(fp)
	// The snapshot file already exists (the previous owner wrote it), so
	// appending the register record directly keeps the store invariant that
	// recovery only trusts records whose snapshot landed first. Built
	// status is not recorded — ready-vs-warming is decided at load by
	// whether the file carries models.
	c.logMutation(store.Record{Op: store.OpRegister, Key: key, Name: key, Version: version, Unix: stub.Registered.UnixNano()}, fp)
	c.swapTenants(func(m tenantMap) { m[key] = t })
	c.counters.Adopted++
	c.evictOverCapLocked(t)
	c.mu.Unlock()

	if !c.ensureLoaded(t) {
		return nil, ErrNotFound
	}
	return t.Snapshot(), nil
}

// ensureLoaded resolves a stored stub into a servable snapshot, single-
// flighting concurrent lookups through the tenant's loadMu. It returns
// false when the tenant is gone: deregistered while we waited, or dropped
// because its persisted snapshot failed verification.
func (c *Catalog) ensureLoaded(t *Tenant) bool {
	for {
		stub := t.snap.Load()
		if stub.State != StateStored {
			return true
		}
		t.loadMu.Lock()
		if t.snap.Load() != stub {
			// Another lookup published (or the budget accountant swapped a
			// fresh stub) while we queued; re-examine from the top.
			t.loadMu.Unlock()
			continue
		}
		ok := c.loadStored(t, stub)
		t.loadMu.Unlock()
		if !ok {
			return false
		}
	}
}

// loadStored reads, verifies and publishes the tenant's persisted
// snapshot. A snapshot carrying trained models publishes ready — the
// crash-recovery path that serves the first post-restart request with zero
// re-training. One persisted before its build completed publishes warming
// on the shared fallback models and resubmits the build. A snapshot that
// fails verification drops the tenant durably (WAL evict + file delete) so
// a corrupt file turns into a clean 404 and a re-registration, not a
// crash loop. Caller holds t.loadMu.
func (c *Catalog) loadStored(t *Tenant, stub *Snapshot) bool {
	ts, size, err := c.cfg.Store.LoadSnapshot(t.key, stub.Version, stub.Fingerprint)
	if err != nil {
		c.dropTenant(t)
		return false
	}
	demos, err := parseDemos(ts.DB, demosFromStore(ts.Demos))
	if err != nil {
		c.dropTenant(t)
		return false
	}
	state, built := StateWarming, time.Time{}
	clf, pred := c.cfg.Fallback.Clf, c.cfg.Fallback.Pred
	if ts.HasModels() {
		clf, pred = &classifier.Model{}, &predictor.Model{}
		if clf.UnmarshalBinary(ts.Classifier) != nil || pred.UnmarshalBinary(ts.Predictor) != nil {
			c.dropTenant(t)
			return false
		}
		state, built = StateReady, ts.Built
	}
	loaded := c.resident(&Snapshot{
		Name:        ts.Name,
		Version:     ts.Version,
		State:       state,
		Fingerprint: ts.Fingerprint,
		DB:          ts.DB,
		Demos:       demos,
		Registered:  ts.Registered,
		Built:       built,
	}, clf, pred)

	c.mu.Lock()
	defer c.mu.Unlock()
	if (*c.tenants.Load())[t.key] != t {
		return false // deregistered or evicted while loading
	}
	if t.snap.Load() != stub {
		return true // superseded concurrently; ensureLoaded re-examines
	}
	t.publish(loaded)
	t.storeBytes.Store(size)
	c.residentBytes += size
	if loaded.State == StateWarming && !c.closed {
		// The crash happened before this version's build landed: resubmit
		// it. Admission failure is tolerable — the tenant serves warming and
		// the next re-registration retries.
		gen := t.gen.Load() + 1
		req := jobs.Request{
			Label: "catalog-build " + t.key + " v" + fmt.Sprint(loaded.Version) + " (recovered)",
			Run:   c.buildFn(t, gen, loaded),
		}
		if _, err := c.builds.Submit(req); err == nil {
			t.gen.Store(gen)
		}
	}
	c.enforceBudgetLocked(t)
	return true
}

// dropTenant durably removes a tenant whose persisted snapshot cannot be
// served (missing, corrupt, or failing to decode). Caller holds t.loadMu
// but not c.mu.
func (c *Catalog) dropTenant(t *Tenant) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if (*c.tenants.Load())[t.key] != t {
		return
	}
	c.retireTenantLocked(t, store.OpEvict)
	c.swapTenants(func(m tenantMap) { delete(m, t.key) })
	c.counters.Evicted++
}

// unloadLocked flips a resident store-backed tenant back to a stored stub,
// releasing its pipeline, demo pool and caches to the garbage collector.
// Non-destructive, unlike eviction: the registration stands, the persisted
// snapshot stays, and the next Lookup reloads. Requests already holding
// the resident snapshot finish against it (RCU). Callers hold c.mu.
func (c *Catalog) unloadLocked(t *Tenant) {
	s := t.snap.Load()
	stub := &Snapshot{
		Name:        s.Name,
		Version:     s.Version,
		State:       StateStored,
		Fingerprint: s.Fingerprint,
		Registered:  s.Registered,
		Built:       s.Built,
	}
	t.publish(stub)
	c.residentBytes -= t.storeBytes.Load()
	if c.residentBytes < 0 {
		c.residentBytes = 0
	}
	c.counters.Unloads++
}

// enforceBudgetLocked unloads least-recently-used ready tenants until the
// resident store-backed bytes fit the budget, never unloading keep (the
// tenant that just loaded or built — evicting it would thrash). Warming
// tenants are skipped: their persisted file carries no models yet, so
// unloading would discard in-flight training. Callers hold c.mu.
func (c *Catalog) enforceBudgetLocked(keep *Tenant) {
	if c.cfg.Store == nil || c.cfg.MemoryBudget <= 0 {
		return
	}
	for c.residentBytes > c.cfg.MemoryBudget {
		var victim *Tenant
		for _, t := range *c.tenants.Load() {
			if t == keep || t.storeBytes.Load() <= 0 {
				continue
			}
			if t.snap.Load().State != StateReady {
				continue
			}
			if victim == nil || t.lastUsed.Load() < victim.lastUsed.Load() {
				victim = t
			}
		}
		if victim == nil {
			return
		}
		c.unloadLocked(victim)
	}
}

// storeSnapshot assembles the persisted form of a snapshot. Demos travel
// as (NL, canonical SQL) text and are re-parsed on load — demo IDs are
// positional, so the reconstructed examples (and every pipeline seed
// derived from them) are identical to the originals. Models are attached
// when supplied (build completion); a registration-time save carries none.
func (c *Catalog) storeSnapshot(s *Snapshot, clf *classifier.Model, pred *predictor.Model) *store.TenantSnapshot {
	ts := &store.TenantSnapshot{
		Name:        s.Name,
		Version:     s.Version,
		Fingerprint: s.Fingerprint,
		Registered:  s.Registered,
		Built:       s.Built,
		DB:          s.DB,
		Demos:       make([]store.Demo, len(s.Demos)),
	}
	for i, e := range s.Demos {
		ts.Demos[i] = store.Demo{NL: e.NL, SQL: e.GoldSQL}
	}
	if clf != nil && pred != nil {
		cb, cerr := clf.MarshalBinary()
		pb, perr := pred.MarshalBinary()
		if cerr == nil && perr == nil {
			ts.Classifier, ts.Predictor = cb, pb
		}
	}
	return ts
}

func demosFromStore(in []store.Demo) []Demo {
	out := make([]Demo, len(in))
	for i, d := range in {
		out[i] = Demo{NL: d.NL, SQL: d.SQL}
	}
	return out
}
