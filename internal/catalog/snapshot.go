package catalog

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// State is a tenant snapshot's readiness phase.
type State string

// Snapshot states. A tenant serves from the moment it is registered:
// Warming means its pipeline runs on the base pipeline's models while the
// per-tenant models train asynchronously; Ready means the trained
// models have been published. Stored is a durability stub: the tenant's
// state lives in the snapshot store (WAL-recovered at startup, or unloaded
// by the memory-budget accountant) and only Name, Version, Fingerprint and
// the lifecycle timestamps are populated — DB, Demos and Pipeline are nil
// until the first Lookup lazily loads the persisted snapshot.
const (
	StateWarming State = "warming"
	StateReady   State = "ready"
	StateStored  State = "stored"
)

// Demo is one registered demonstration: a natural-language question with
// its gold SQL over the tenant's schema. The demo pool is both the tenant's
// in-prompt demonstration source and the oracle channel the simulated LLM
// needs (see internal/llm's simulation contract).
type Demo struct {
	NL  string `json:"question"`
	SQL string `json:"sql"`
}

// Registration is the input to Catalog.Register: a database plus its
// demonstration pool.
type Registration struct {
	DB    *schema.Database
	Demos []Demo
}

// Snapshot is the immutable per-tenant artifact bundle: everything a
// translate or execute request needs, published atomically so the hot read
// path never observes a half-built tenant. Re-registration builds a fresh
// Snapshot and swaps the pointer; requests already holding the old one
// finish against a consistent (if stale) view.
type Snapshot struct {
	// Name is the tenant's registered database name (display case).
	Name string
	// Version counts registrations of this name, starting at 1.
	Version int
	// State reports whether the pipeline runs on the base pipeline's
	// (warming) or tenant-trained (ready) models.
	State State
	// Fingerprint is the schema fingerprint plans and caches are keyed by.
	Fingerprint uint64
	// DB is the registered database (schema + rows).
	DB *schema.Database
	// Demos is the tenant's demonstration pool as parsed examples.
	Demos []*spider.Example
	// Pipeline is the tenant's translation pipeline.
	Pipeline *core.Pipeline
	// Cache is the tenant's LLM response cache (nil on a stored stub).
	// Warming and ready snapshots of one version share it, so responses
	// cached while warming survive the model swap.
	Cache *llm.Cache
	// Plans is the tenant's prepared-statement cache for /execute traffic.
	Plans *sqlexec.PlanCache
	// Registered and Built are lifecycle timestamps; Built is zero while
	// warming.
	Registered, Built time.Time
}

// Oracle resolves a question to a translatable example: the nearest demo
// by token overlap supplies the hidden gold query the simulated LLM grades
// prompts against. It returns false when no demo is close enough — the
// pipeline can still produce retrieval artifacts for such questions, but
// not a graded translation. (A real deployment would call a real LLM here
// and need no oracle; the threshold is deliberately permissive so
// paraphrases of registered demos translate.)
func (s *Snapshot) Oracle(question string) (*spider.Example, bool) {
	q := tokenSet(question)
	if len(q) == 0 {
		return nil, false
	}
	best, bestScore := -1, 0.0
	for i, d := range s.Demos {
		score := jaccard(q, tokenSet(d.NL))
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 || bestScore < 0.5 {
		return nil, false
	}
	d := s.Demos[best]
	return &spider.Example{
		ID:      d.ID,
		DB:      s.DB,
		NL:      question,
		Gold:    d.Gold,
		GoldSQL: d.GoldSQL,
	}, true
}

func tokenSet(s string) map[string]bool {
	out := map[string]bool{}
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			out[sb.String()] = true
			sb.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			sb.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for w := range a {
		if b[w] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// ValidateDatabase checks the structural invariants registration relies on:
// a named schema with at least one table, unique case-insensitive table and
// column names, declared primary keys that exist, row arity matching the
// column count, and foreign keys whose endpoints resolve. It returns the
// first violation found.
func ValidateDatabase(db *schema.Database) error {
	if db == nil {
		return fmt.Errorf("catalog: nil database")
	}
	if strings.TrimSpace(db.Name) == "" {
		return fmt.Errorf("catalog: database name is empty")
	}
	if !validName(db.Name) {
		return fmt.Errorf("catalog: database name %q must match [A-Za-z0-9_.-]+ (it becomes a /v1/databases/{name} path segment)", db.Name)
	}
	if len(db.Tables) == 0 {
		return fmt.Errorf("catalog: database %q has no tables", db.Name)
	}
	seenT := map[string]bool{}
	for _, t := range db.Tables {
		tn := strings.ToLower(t.Name)
		if strings.TrimSpace(t.Name) == "" {
			return fmt.Errorf("catalog: database %q has an unnamed table", db.Name)
		}
		if seenT[tn] {
			return fmt.Errorf("catalog: duplicate table %q", t.Name)
		}
		seenT[tn] = true
		if len(t.Columns) == 0 {
			return fmt.Errorf("catalog: table %q has no columns", t.Name)
		}
		seenC := map[string]bool{}
		for _, c := range t.Columns {
			cn := strings.ToLower(c.Name)
			if strings.TrimSpace(c.Name) == "" {
				return fmt.Errorf("catalog: table %q has an unnamed column", t.Name)
			}
			if seenC[cn] {
				return fmt.Errorf("catalog: table %q has duplicate column %q", t.Name, c.Name)
			}
			seenC[cn] = true
		}
		if t.PrimaryKey != "" && !t.HasColumn(t.PrimaryKey) {
			return fmt.Errorf("catalog: table %q declares missing primary key %q", t.Name, t.PrimaryKey)
		}
		for i, r := range t.Rows {
			if len(r) != len(t.Columns) {
				return fmt.Errorf("catalog: table %q row %d has %d cells for %d columns", t.Name, i, len(r), len(t.Columns))
			}
		}
	}
	for _, fk := range db.ForeignKeys {
		from, to := db.Table(fk.FromTable), db.Table(fk.ToTable)
		if from == nil || to == nil {
			return fmt.Errorf("catalog: foreign key %s.%s -> %s.%s references a missing table",
				fk.FromTable, fk.FromColumn, fk.ToTable, fk.ToColumn)
		}
		if !from.HasColumn(fk.FromColumn) || !to.HasColumn(fk.ToColumn) {
			return fmt.Errorf("catalog: foreign key %s.%s -> %s.%s references a missing column",
				fk.FromTable, fk.FromColumn, fk.ToTable, fk.ToColumn)
		}
	}
	return nil
}

// validName limits tenant names to one unescaped URL path segment, so every
// registered database stays addressable (and deletable) via the
// /v1/databases/{name} routes.
func validName(name string) bool {
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return name != "." && name != ".."
}

// parseDemos turns registered demos into examples over db, rejecting demos
// whose SQL does not parse or whose question is empty. The returned
// examples carry stable IDs (their demo index) so pipeline seeds are
// reproducible per tenant version.
func parseDemos(db *schema.Database, demos []Demo) ([]*spider.Example, error) {
	if len(demos) == 0 {
		return nil, fmt.Errorf("catalog: at least one demonstration is required")
	}
	out := make([]*spider.Example, 0, len(demos))
	for i, d := range demos {
		if strings.TrimSpace(d.NL) == "" {
			return nil, fmt.Errorf("catalog: demo %d has an empty question", i)
		}
		sel, err := sqlir.Parse(d.SQL)
		if err != nil {
			return nil, fmt.Errorf("catalog: demo %d sql: %v", i, err)
		}
		out = append(out, &spider.Example{
			ID:      i,
			DB:      db,
			NL:      d.NL,
			Gold:    sel,
			GoldSQL: sqlir.String(sel),
		})
	}
	return out, nil
}
