package sqlexec

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"

	"repro/internal/schema"
	"repro/internal/sqlir"
	"repro/internal/trace"
)

// Prepare compiles the query against the database's schema into a reusable
// statement. The returned Stmt holds no per-execution state and no AST
// references, so it is safe for concurrent use and immune to later mutation
// of sel (the adaption module rewrites ASTs in place between attempts).
//
// A Stmt may execute against any database whose schema matches the one it
// was prepared on — in particular the reinstantiated instances the TS
// metric distills, which share the schema and differ only in rows.
func Prepare(db *schema.Database, sel *sqlir.Select) (*Stmt, error) {
	return PrepareOptions(db, sel, PlanOptions{})
}

// PrepareOptions compiles with explicit physical-plan options.
func PrepareOptions(db *schema.Database, sel *sqlir.Select, opts PlanOptions) (*Stmt, error) {
	root, err := planTop(db, sel, opts)
	if err != nil {
		return nil, err
	}
	return &Stmt{root: root, fp: db.Fingerprint()}, nil
}

// PrepareSQL parses and prepares a SQL string.
func PrepareSQL(db *schema.Database, sql string) (*Stmt, error) {
	sel, err := sqlir.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Prepare(db, sel)
}

// Stmt is a compiled, immutable, concurrency-safe query plan.
type Stmt struct {
	root *selectPlan
	fp   uint64
}

// Exec runs the statement against db. The database must carry the same
// schema the statement was prepared on (same tables, columns and types in
// order); rows may differ freely. The fingerprint is cached on the
// database, so the check is one atomic load per execution.
func (s *Stmt) Exec(db *schema.Database) (*Result, error) {
	if db.Fingerprint() != s.fp {
		return nil, ErrSchemaMismatch
	}
	return s.root.run(db)
}

// PlanCacheStats are the plan cache's observability counters, exported on
// /v1/metrics as plan_cache_*.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// PlanCache is a keyed LRU of prepared statements. The key is (schema
// fingerprint, SQL text), so a hit skips parsing and planning entirely, and
// databases that share a schema — the TS metric's distilled instances —
// share cached plans. Parse and plan failures are not cached. Safe for
// concurrent use.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*list.Element
	lru       *list.List // front = most recent; values are *cacheEntry
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key  string
	stmt *Stmt
}

// NewPlanCache returns a cache bounded to capacity statements (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
	}
}

// Shared is the process-wide plan cache used by the repeat-execution call
// sites: eval.ExecutionMatch and the TS metric, and the service's /execute
// endpoint for benchmark databases. Served answers are graded through
// eval.Gold, which executes with Exec, so grading moves none of its
// counters. They are exported on /v1/metrics as
// plan_cache_*{cache="shared"}.
var Shared = NewPlanCache(512)

// Prepare returns a cached statement for (db's schema, sql), compiling and
// inserting on miss.
func (c *PlanCache) Prepare(db *schema.Database, sql string) (*Stmt, error) {
	stmt, _, err := c.prepare(db, sql)
	return stmt, err
}

// prepare is Prepare plus a first-lookup hit flag for tracing. Losing a
// concurrent compile race still reports a miss: this caller did the work.
func (c *PlanCache) prepare(db *schema.Database, sql string) (*Stmt, bool, error) {
	key := strconv.FormatUint(db.Fingerprint(), 16) + "\x00" + sql
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		stmt := el.Value.(*cacheEntry).stmt
		c.mu.Unlock()
		return stmt, true, nil
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock; concurrent misses on the same key duplicate
	// work but converge on one cached entry.
	stmt, err := PrepareSQL(db, sql)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		stmt = el.Value.(*cacheEntry).stmt
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, stmt: stmt})
		for c.lru.Len() > c.capacity {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	return stmt, false, nil
}

// Exec prepares sql through the cache and executes it against db — the
// one cached-execution sequence shared by every repeat-execution call site
// (EX/TS metrics, /execute).
func (c *PlanCache) Exec(db *schema.Database, sql string) (*Result, error) {
	stmt, err := c.Prepare(db, sql)
	if err != nil {
		return nil, err
	}
	return stmt.Exec(db)
}

// ExecCtx is Exec with tracing: when ctx carries a recorded trace it opens a
// "sqlexec.exec" child span annotated with the plan-cache outcome, the
// database, and the result size. With a spanless context it is exactly Exec.
func (c *PlanCache) ExecCtx(ctx context.Context, db *schema.Database, sql string) (*Result, error) {
	_, sp := trace.StartSpan(ctx, "sqlexec.exec")
	if sp == nil {
		return c.Exec(db, sql)
	}
	defer sp.Finish()
	stmt, hit, err := c.prepare(db, sql)
	sp.SetAttrs(trace.Bool("plan_cache_hit", hit), trace.Str("db", db.Name))
	if err != nil {
		sp.SetError(true)
		sp.SetAttrs(trace.Str("error", err.Error()))
		return nil, err
	}
	res, err := stmt.Exec(db)
	if err != nil {
		sp.SetError(true)
		sp.SetAttrs(trace.Str("error", err.Error()))
		return nil, err
	}
	sp.SetAttrs(trace.Int("rows", int64(len(res.Rows))))
	return res, nil
}

// InvalidateFingerprint removes every cached statement prepared against a
// schema with the given fingerprint and returns how many were dropped. The
// multi-tenant catalog calls it when a database is re-registered or evicted:
// the fingerprint names the retired schema version, so plans compiled
// against it must not be served to the replacement. Dropped entries do not
// count as evictions (they were invalidated, not displaced by pressure).
func (c *PlanCache) InvalidateFingerprint(fp uint64) int {
	prefix := strconv.FormatUint(fp, 16) + "\x00"
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, el := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.lru.Remove(el)
			delete(c.entries, key)
			n++
		}
	}
	return n
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.lru.Len(),
		Capacity:  c.capacity,
	}
}

// Reset drops every cached plan and zeroes the counters.
func (c *PlanCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.lru = list.New()
	c.hits, c.misses, c.evictions = 0, 0, 0
}
