// Package catalog is the multi-tenant database registry: the subsystem
// that turns PURPLE's per-database premise — translation quality comes from
// a database-specific demonstration pool and pruned schema — into a runtime
// capability. Databases register over the service API, get a per-tenant
// pipeline (schema, demo pool, trained models, automaton hierarchy, LLM
// cache, plan cache) bundled into an immutable Snapshot, and come and go
// without a restart.
//
// Concurrency model (RCU-style): the tenant table is an atomically swapped
// copy-on-write map and each tenant's Snapshot is an atomically swapped
// pointer, so the translate/execute hot path does two atomic loads and
// takes no lock. Writers (register, re-register, evict) serialize on one
// mutex, build the new state aside, and publish it with a pointer swap;
// requests already holding the old snapshot finish against a consistent
// view and the garbage collector reclaims it when they drain.
//
// Registration is cheap and synchronous: the schema is validated and
// fingerprinted, demos parsed, and a *warming* snapshot — the tenant's own
// demos over the base pipeline's classifier and predictor, the models the
// shard already trained on its own corpus — is published immediately. The
// expensive artifacts (tenant-trained classifier and predictor) build
// asynchronously through the jobs machinery; when the build lands the
// snapshot swaps to *ready*. Re-registration bumps the version and
// discards any in-flight build for the old version; the retired snapshot's
// plan cache goes with it.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/predictor"
	"repro/internal/sqlexec"
	"repro/internal/store"
)

// Typed errors surfaced to the service layer.
var (
	// ErrExists is returned by Register for an already-registered name; the
	// service maps it to HTTP 409. Use Reregister to replace.
	ErrExists = errors.New("catalog: database already registered")
	// ErrNotFound is returned for an unknown tenant name.
	ErrNotFound = errors.New("catalog: no such database")
	// ErrBusy is returned when the async build queue cannot admit the
	// registration's model build; the service maps it to HTTP 429.
	ErrBusy = errors.New("catalog: build queue full")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("catalog: closed")
)

// Config parameterizes a Catalog. Client and Base are required.
type Config struct {
	// Client is the base LLM backend shared by every tenant (each tenant
	// wraps it in its own 1,024-entry cache).
	Client llm.Client
	// Base is the shard's own pipeline. Every tenant pipeline runs with its
	// configuration, and every warming one on its classifier and predictor;
	// its LLM client is not used.
	Base *core.Pipeline
	// MaxTenants caps the registry; registering past it LRU-evicts the
	// least-recently-used tenant (default 64).
	MaxTenants int
	// IdleTTL evicts tenants unused for this long (0 disables the janitor).
	IdleTTL time.Duration
	// Jobs, when non-nil, is an external jobs manager the catalog submits
	// its builds to instead of owning one (2 runners, a queue of 64). The
	// caller keeps responsibility for its lifecycle.
	Jobs *jobs.Manager
	// Store, when non-nil, makes tenant state durable: every mutation is
	// written to the store's WAL, registrations and completed builds persist
	// fingerprint-addressed snapshots, and New replays the WAL into stored
	// stubs that lazily load on first Lookup. The caller owns the store's
	// lifecycle and must Close it only after the catalog has drained.
	Store *store.Store
	// MemoryBudget caps the resident bytes of store-backed tenants (proxied
	// by persisted snapshot size): when loads push past it, the
	// least-recently-used ready tenants are unloaded back to stored stubs.
	// 0 means unlimited. Ignored without a Store.
	MemoryBudget int64
}

// Per-tenant cache capacities: LLM cache entries and prepared statements.
const (
	tenantCacheEntries = 1024
	tenantPlanEntries  = 128
)

func (c Config) withDefaults() Config {
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	return c
}

// Tenant is one registered database. Snapshot is the only method hot paths
// need; the Record* methods feed the per-tenant series on /v1/metrics. All
// exported methods are safe for concurrent use without locks.
type Tenant struct {
	key  string // lower-cased name, the map key
	snap atomic.Pointer[Snapshot]
	gen  atomic.Int64 // registration generation; stale builds compare it

	lastUsed     atomic.Int64 // unix nanos
	lookups      atomic.Int64
	translations atomic.Int64
	execs        atomic.Int64
	translateNs  atomic.Int64

	// loadMu single-flights the lazy load of a stored stub so a lookup
	// stampede on a cold tenant reads the snapshot file once.
	loadMu sync.Mutex
	// storeBytes is the persisted snapshot size, the tenant's weight in the
	// memory-budget accounting (0 without a store).
	storeBytes atomic.Int64
	// retired is the cache traffic of the snapshots the tenant has swapped
	// out, guarded by Catalog.mu. Stats adds the current snapshot's, so the
	// tenant's cache series count its lifetime and never go backwards.
	retired cacheCounts
}

// cacheCounts is the LLM and plan cache traffic of one or more snapshots.
type cacheCounts struct{ llmHits, llmMisses, planHits, planMisses int64 }

func (a *cacheCounts) add(s *Snapshot) {
	if s.Cache != nil {
		cs := s.Cache.Stats()
		a.llmHits += cs.Hits
		a.llmMisses += cs.Misses
	}
	if s.Plans != nil {
		ps := s.Plans.Stats()
		a.planHits += int64(ps.Hits)
		a.planMisses += int64(ps.Misses)
	}
}

// Snapshot returns the tenant's current immutable snapshot.
func (t *Tenant) Snapshot() *Snapshot { return t.snap.Load() }

// publish makes next the tenant's snapshot. When next does not carry the
// current snapshot's caches (re-registration, unload, reload), their
// counts fold into t.retired first; a request still in flight on the old
// snapshot may go uncounted. Callers hold Catalog.mu.
func (t *Tenant) publish(next *Snapshot) {
	if prev := t.snap.Load(); prev != nil && prev.Cache != next.Cache {
		t.retired.add(prev)
	}
	t.snap.Store(next)
}

// RecordTranslate accounts one translation and its latency.
func (t *Tenant) RecordTranslate(d time.Duration) {
	t.translations.Add(1)
	t.translateNs.Add(int64(d))
}

// RecordExec accounts one /execute query.
func (t *Tenant) RecordExec() { t.execs.Add(1) }

func (t *Tenant) touch(now time.Time) {
	t.lastUsed.Store(now.UnixNano())
	t.lookups.Add(1)
}

// TenantStats is one tenant's row in Stats. Schema-level facts (version,
// tables, demonstrations, registration time) live on the tenant's Snapshot.
type TenantStats struct {
	Name         string
	State        string
	Lookups      int64
	Translations int64
	Executions   int64
	// TranslateSeconds is the summed translation latency; divided by
	// Translations it is the mean.
	TranslateSeconds float64
	// LLM and plan cache counters over every snapshot the tenant has
	// served, not only the current one.
	CacheHits       int64
	CacheMisses     int64
	PlanCacheHits   int64
	PlanCacheMisses int64
}

// Stats is the catalog-wide observability snapshot.
type Stats struct {
	Tenants []TenantStats
	// MaxTenants echoes the configured cap.
	MaxTenants int
	// Lifetime counters.
	Registered   int64
	Reregistered int64
	Deregistered int64
	Evicted      int64
	// Adopted counts tenants taken over from another shard's persisted
	// snapshot in a shared store (resharding hand-off, no re-training).
	Adopted      int64
	BuildsDone   int64
	BuildsStale  int64
	BuildsFailed int64
	// Unloads counts ready tenants flipped back to stored stubs by the
	// memory-budget accountant or idle reclamation (store-backed catalogs
	// only).
	Unloads int64
	// StoreResidentBytes is the loaded (resident) portion of the persisted
	// tenant state the memory budget governs.
	StoreResidentBytes int64
	// Store mirrors the snapshot store's own counters; nil without a store.
	Store *store.Stats
}

type tenantMap map[string]*Tenant

// Catalog is the concurrency-safe tenant registry.
type Catalog struct {
	cfg     Config
	tenants atomic.Pointer[tenantMap]

	mu        sync.Mutex // serializes writers; never held on the read path
	closed    bool
	counters  Stats // only the lifetime counter fields are maintained here
	builds    *jobs.Manager
	ownsBuild bool

	// residentBytes sums storeBytes over tenants whose snapshot is loaded
	// (state != stored); the memory budget bounds it.
	residentBytes int64

	// now is the clock, swappable by tests for idle-eviction determinism.
	now func() time.Time

	stopJanitor chan struct{}
	janitorDone chan struct{}
}

// New validates cfg and builds an empty catalog (starting the idle janitor
// when IdleTTL > 0). Call Close to stop background work.
func New(cfg Config) (*Catalog, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("catalog: Config.Client is required")
	}
	if cfg.Base == nil {
		return nil, fmt.Errorf("catalog: Config.Base is required")
	}
	cfg = cfg.withDefaults()
	c := &Catalog{
		cfg:         cfg,
		now:         time.Now,
		stopJanitor: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	empty := tenantMap{}
	c.tenants.Store(&empty)
	if cfg.Jobs != nil {
		c.builds = cfg.Jobs
	} else {
		// The build manager reuses the jobs subsystem's admission queue,
		// runner pool and drain; builds are Run-style jobs, so no
		// translator is needed.
		c.builds = jobs.NewManager(nil, jobs.Config{Runners: 2, Queue: 64, TTL: time.Minute})
		c.ownsBuild = true
	}
	if cfg.Store != nil {
		c.recoverFromStore()
	}
	if cfg.IdleTTL > 0 {
		go c.janitor()
	} else {
		close(c.janitorDone)
	}
	return c, nil
}

// Lookup resolves a tenant by name on the lock-free hot path: one atomic
// map load, one hash lookup, and atomic counter bumps. A stored stub (a
// tenant recovered from the WAL or unloaded under memory pressure) takes
// the slow path once: its persisted snapshot is lazily loaded and
// published, so the first request after a restart is served from the
// trained artifacts with no re-training.
func (c *Catalog) Lookup(name string) (*Tenant, bool) {
	m := c.tenants.Load()
	t, ok := (*m)[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	if t.snap.Load().State == StateStored && !c.ensureLoaded(t) {
		return nil, false
	}
	t.touch(c.now())
	return t, true
}

// List snapshots every tenant, sorted by name.
func (c *Catalog) List() []*Snapshot {
	m := c.tenants.Load()
	out := make([]*Snapshot, 0, len(*m))
	for _, t := range *m {
		out = append(out, t.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Register admits a new database, publishing a warming snapshot
// synchronously and scheduling the model build. It fails with ErrExists
// for a duplicate name (use Reregister to replace) and ErrBusy when the
// build queue cannot admit the work.
func (c *Catalog) Register(reg Registration) (*Snapshot, error) {
	return c.register(reg, false)
}

// Reregister registers a database, replacing any existing tenant of the
// same name: the version bumps and the snapshot, its plan cache included,
// swaps without dropping in-flight requests (they finish against the old
// snapshot).
func (c *Catalog) Reregister(reg Registration) (*Snapshot, error) {
	return c.register(reg, true)
}

func (c *Catalog) register(reg Registration, replace bool) (*Snapshot, error) {
	if err := ValidateDatabase(reg.DB); err != nil {
		return nil, err
	}
	demos, err := parseDemos(reg.DB, reg.Demos)
	if err != nil {
		return nil, err
	}
	key := strings.ToLower(reg.DB.Name)

	// Build the warming snapshot outside the lock: the pipeline over the
	// tenant's demos with the base pipeline's models. This is the cheap
	// part — hierarchy construction and demo rendering scale with the demo
	// pool, and nothing trains.
	warming := c.resident(&Snapshot{
		Name:        reg.DB.Name,
		State:       StateWarming,
		Fingerprint: reg.DB.Fingerprint(),
		DB:          reg.DB,
		Demos:       demos,
		Registered:  c.now(),
	}, c.cfg.Base.Classifier(), c.cfg.Base.Predictor())

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	old := (*c.tenants.Load())[key]
	if old != nil && !replace {
		c.mu.Unlock()
		return nil, ErrExists
	}
	t := old
	version := 1
	if old != nil {
		version = old.Snapshot().Version + 1
	} else {
		t = &Tenant{key: key}
		t.lastUsed.Store(c.now().UnixNano())
	}
	warming.Version = version
	// The new generation is published only after the build is admitted: a
	// rejected re-register must leave the old version — including its
	// still-pending build, if any — fully intact.
	gen := t.gen.Load() + 1

	// Admission-check the build before publishing: a registration whose
	// models could never train must not half-exist.
	buildReq := jobs.Request{
		Label: "catalog-build " + key + " v" + fmt.Sprint(version),
		Run:   c.buildFn(t, gen, warming),
	}
	if _, err := c.builds.Submit(buildReq); err != nil {
		c.mu.Unlock()
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			return nil, ErrBusy
		case errors.Is(err, jobs.ErrShuttingDown):
			// An external build manager draining means the process is going
			// away; surface the retry-elsewhere condition, not a client error.
			return nil, ErrClosed
		}
		return nil, err
	}
	t.gen.Store(gen)

	if old != nil {
		if old.Snapshot().State != StateStored {
			c.residentBytes -= t.storeBytes.Load()
		}
		c.counters.Reregistered++
	} else {
		c.counters.Registered++
	}
	if c.cfg.Store != nil {
		// Persist the registration (schema + demos, no models yet) before
		// its WAL record: recovery only trusts records whose snapshot file
		// landed. A crash between the two leaves an orphan file that Open
		// garbage-collects.
		op := store.OpRegister
		if old != nil {
			op = store.OpReregister
		}
		if size, err := c.cfg.Store.SaveSnapshot(key, c.storeSnapshot(warming, nil, nil)); err == nil {
			t.storeBytes.Store(size)
			c.residentBytes += size
		}
		c.logMutation(store.Record{Op: op, Key: key, Name: warming.Name, Version: version, Unix: warming.Registered.UnixNano()}, warming.Fingerprint)
	}
	t.publish(warming)
	if old == nil {
		c.swapTenants(func(m tenantMap) { m[key] = t })
		c.evictOverCapLocked(t)
	}
	c.enforceBudgetLocked(t)
	c.mu.Unlock()
	slog.Info("tenant registered", "tenant", key, "version", version, "replaced", old != nil)
	return warming, nil
}

// buildFn returns the async build body: train the tenant's own models,
// assemble the ready snapshot, and publish it — unless a newer registration
// or an eviction retired this generation first.
func (c *Catalog) buildFn(t *Tenant, gen int64, warming *Snapshot) func(context.Context) error {
	return func(ctx context.Context) error {
		used := classifier.UsedByExample(warming.Demos)
		clf := classifier.Train(warming.Demos, used)
		if err := ctx.Err(); err != nil {
			return c.buildFailed(err)
		}
		pred := predictor.Train(warming.Demos)
		if err := ctx.Err(); err != nil {
			return c.buildFailed(err)
		}
		ready := *warming
		ready.State = StateReady
		ready.Pipeline = warming.Pipeline.WithModels(clf, pred)
		ready.Built = c.now()

		c.mu.Lock()
		defer c.mu.Unlock()
		current := (*c.tenants.Load())[t.key]
		if current != t || t.gen.Load() != gen {
			c.counters.BuildsStale++
			return nil
		}
		if c.cfg.Store != nil {
			// Re-persist the snapshot with the trained models and mark the
			// version built in the WAL; a restart now republishes this
			// tenant ready with zero re-training. A failed save keeps the
			// registration-time file: recovery falls back to warming + a
			// fresh build, never a half-trained tenant.
			if size, err := c.cfg.Store.SaveSnapshot(t.key, c.storeSnapshot(&ready, clf, pred)); err == nil {
				c.residentBytes += size - t.storeBytes.Load()
				t.storeBytes.Store(size)
				c.logMutation(store.Record{Op: store.OpBuilt, Key: t.key, Version: ready.Version, Unix: ready.Built.UnixNano()}, ready.Fingerprint)
			}
		}
		// Refresh recency without counting a lookup: a tenant that queued
		// long enough for IdleTTL to lapse must not be idle-evicted the
		// moment its training lands.
		t.lastUsed.Store(c.now().UnixNano())
		t.publish(&ready)
		c.counters.BuildsDone++
		c.enforceBudgetLocked(t)
		slog.Info("tenant build complete", "tenant", t.key, "version", ready.Version)
		return nil
	}
}

// resident completes s with the parts every loaded snapshot of a tenant
// owns: an LLM cache over the shared client, a plan cache, and a pipeline
// over s.Demos with the given models. Registration and the lazy load from
// the store both build through here; the ready snapshot a build publishes
// keeps its warming snapshot's caches.
func (c *Catalog) resident(s *Snapshot, clf *classifier.Model, pred *predictor.Model) *Snapshot {
	s.Cache = llm.NewCache(c.cfg.Client, tenantCacheEntries)
	s.Plans = sqlexec.NewPlanCache(tenantPlanEntries)
	s.Pipeline = core.NewWithModels(s.Demos, classifier.UsedByExample(s.Demos), s.Cache, c.cfg.Base.Config(), clf, pred)
	return s
}

// logMutation appends one catalog mutation to the store's WAL. A failed
// append leaves the mutation applied in memory but not durable; the store
// counts it (store_wal_append_failures_total) and it is logged here.
func (c *Catalog) logMutation(rec store.Record, fp uint64) {
	rec.SetFingerprint(fp)
	if err := c.cfg.Store.Append(rec); err != nil {
		slog.Warn("wal append failed", "tenant", rec.Key, "op", string(rec.Op), "err", err)
	}
}

// buildFailed accounts a build that errored out (cancellation during drain
// being the realistic case) and passes the error through to the job; the
// tenant keeps serving its warming snapshot.
func (c *Catalog) buildFailed(err error) error {
	c.mu.Lock()
	c.counters.BuildsFailed++
	c.mu.Unlock()
	slog.Warn("tenant build failed", "err", err)
	return err
}

// Deregister removes a tenant durably: its persisted snapshot is deleted
// and the removal is WAL-logged.
func (c *Catalog) Deregister(name string) error {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := (*c.tenants.Load())[key]
	if !ok {
		return ErrNotFound
	}
	c.retireTenantLocked(t, store.OpDeregister)
	c.swapTenants(func(m tenantMap) { delete(m, key) })
	c.counters.Deregistered++
	return nil
}

// retireTenantLocked performs the bookkeeping shared by every removal path
// (deregister, cap eviction, idle eviction, corrupt-load drop): retire any
// in-flight build via the generation bump, log the removal and delete the
// persisted snapshot. The caller removes the tenant from the map and bumps
// its own counter. Callers hold c.mu.
func (c *Catalog) retireTenantLocked(t *Tenant, op store.Op) {
	t.gen.Add(1)
	s := t.snap.Load()
	if s.State != StateStored {
		c.residentBytes -= t.storeBytes.Load()
		if c.residentBytes < 0 {
			c.residentBytes = 0
		}
	}
	if c.cfg.Store != nil {
		c.logMutation(store.Record{Op: op, Key: t.key, Name: s.Name, Version: s.Version, Unix: c.now().UnixNano()}, s.Fingerprint)
		// With a shared store only explicit deregistration destroys the
		// persisted snapshot: an eviction or corrupt-load drop on this shard
		// must not delete trained state that the ring may place on another
		// shard (or back here) later.
		if op == store.OpDeregister || !c.cfg.Store.Shared() {
			c.cfg.Store.DeleteTenant(t.key)
		}
	}
}

// swapTenants publishes a mutated copy of the tenant map. Callers hold c.mu.
func (c *Catalog) swapTenants(mutate func(m tenantMap)) {
	old := c.tenants.Load()
	next := make(tenantMap, len(*old)+1)
	for k, v := range *old {
		next[k] = v
	}
	mutate(next)
	c.tenants.Store(&next)
}

// evictOverCapLocked LRU-evicts tenants beyond MaxTenants, never evicting
// keep (the tenant just registered). Single pass: victims are the
// (len - cap) least-recently-used tenants, selected in one sort and
// removed with one map swap — a register storm stays O(tenants log
// tenants) under c.mu, not O(victims × tenants). Callers hold c.mu.
func (c *Catalog) evictOverCapLocked(keep *Tenant) {
	m := *c.tenants.Load()
	over := len(m) - c.cfg.MaxTenants
	if over <= 0 {
		return
	}
	candidates := make([]*Tenant, 0, len(m))
	for _, t := range m {
		if t != keep {
			candidates = append(candidates, t)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].lastUsed.Load() < candidates[j].lastUsed.Load()
	})
	if over > len(candidates) {
		over = len(candidates)
	}
	victims := candidates[:over]
	for _, t := range victims {
		c.retireTenantLocked(t, store.OpEvict)
		slog.Info("tenant evicted over capacity", "tenant", t.key)
	}
	c.swapTenants(func(m tenantMap) {
		for _, t := range victims {
			delete(m, t.key)
		}
	})
	c.counters.Evicted += int64(len(victims))
}

// EvictIdle reclaims every tenant idle since before now-IdleTTL and
// returns how many went. Warming tenants are exempt — their lastUsed may
// predate a long build-queue wait, and evicting them would silently
// discard the in-flight training via the generation bump. Stored stubs are
// exempt too (nothing resident to reclaim; evicting one would destroy
// durable state for a tenant merely not yet asked for since restart).
// Store-backed ready tenants are unloaded back to stubs instead of
// destroyed: with durability, idleness is a memory condition, not a
// lifecycle event. The janitor calls this on a timer; tests may call it
// with a synthetic clock.
func (c *Catalog) EvictIdle(now time.Time) int {
	if c.cfg.IdleTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-c.cfg.IdleTTL).UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	var victims []*Tenant
	for _, t := range *c.tenants.Load() {
		if t.lastUsed.Load() >= cutoff {
			continue
		}
		switch t.snap.Load().State {
		case StateWarming, StateStored:
			continue
		}
		if c.cfg.Store != nil && t.storeBytes.Load() > 0 {
			c.unloadLocked(t)
			n++
			continue
		}
		victims = append(victims, t)
	}
	for _, t := range victims {
		c.retireTenantLocked(t, store.OpEvict)
	}
	if len(victims) > 0 {
		c.swapTenants(func(m tenantMap) {
			for _, t := range victims {
				delete(m, t.key)
			}
		})
		c.counters.Evicted += int64(len(victims))
	}
	return n + len(victims)
}

func (c *Catalog) janitor() {
	defer close(c.janitorDone)
	period := c.cfg.IdleTTL / 4
	if period < time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.stopJanitor:
			return
		case now := <-tick.C:
			c.EvictIdle(now)
		}
	}
}

// Stats snapshots catalog-wide and per-tenant counters, tenants sorted by
// name.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	out := c.counters
	out.StoreResidentBytes = c.residentBytes
	// Every snapshot swap holds c.mu, so under it a tenant's retired counts
	// and its current snapshot's caches are read as one consistent pair.
	for _, t := range *c.tenants.Load() {
		s := t.Snapshot()
		cc := t.retired
		cc.add(s)
		out.Tenants = append(out.Tenants, TenantStats{
			Name:             s.Name,
			State:            string(s.State),
			Lookups:          t.lookups.Load(),
			Translations:     t.translations.Load(),
			Executions:       t.execs.Load(),
			TranslateSeconds: time.Duration(t.translateNs.Load()).Seconds(),
			CacheHits:        cc.llmHits,
			CacheMisses:      cc.llmMisses,
			PlanCacheHits:    cc.planHits,
			PlanCacheMisses:  cc.planMisses,
		})
	}
	c.mu.Unlock()
	out.MaxTenants = c.cfg.MaxTenants
	if c.cfg.Store != nil {
		st := c.cfg.Store.Stats()
		out.Store = &st
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Name < out.Tenants[j].Name })
	return out
}

// Close stops the janitor and, when the catalog owns its build manager,
// drains it (in-flight builds get until ctx to finish). Registered tenants
// keep serving lookups; only mutation is rejected afterwards.
func (c *Catalog) Close(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.janitorDone
		return nil
	}
	c.closed = true
	close(c.stopJanitor)
	c.mu.Unlock()
	<-c.janitorDone
	if c.ownsBuild {
		return c.builds.Shutdown(ctx)
	}
	return nil
}
