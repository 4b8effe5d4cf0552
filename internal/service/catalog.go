package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/trace"
)

// ---- JSON schema wire format ----

// ColumnSpec is one column in a database registration.
type ColumnSpec struct {
	Name string `json:"name"`
	// Type is "text" (default) or "number".
	Type   string `json:"type,omitempty"`
	NLName string `json:"nl_name,omitempty"`
}

// TableSpec is one table in a database registration. Rows carry cells as
// JSON strings/numbers/nulls, matching the column order.
type TableSpec struct {
	Name       string       `json:"name"`
	NLName     string       `json:"nl_name,omitempty"`
	PrimaryKey string       `json:"primary_key,omitempty"`
	Columns    []ColumnSpec `json:"columns"`
	Rows       [][]any      `json:"rows,omitempty"`
}

// ForeignKeySpec links FromTable.FromColumn to ToTable.ToColumn.
type ForeignKeySpec struct {
	FromTable  string `json:"from_table"`
	FromColumn string `json:"from_column"`
	ToTable    string `json:"to_table"`
	ToColumn   string `json:"to_column"`
}

// RegisterRequest is the body of POST /v1/databases and PUT
// /v1/databases/{name}: a schema (with optional rows) plus the tenant's
// demonstration pool.
type RegisterRequest struct {
	Name        string           `json:"name"`
	Tables      []TableSpec      `json:"tables"`
	ForeignKeys []ForeignKeySpec `json:"foreign_keys,omitempty"`
	Demos       []catalog.Demo   `json:"demos"`
}

// DatabaseStatusResponse describes one registered tenant.
type DatabaseStatusResponse struct {
	Name        string   `json:"name"`
	State       string   `json:"state"`
	Version     int      `json:"version"`
	Fingerprint string   `json:"fingerprint"`
	Tables      []string `json:"tables"`
	Demos       int      `json:"demos"`
	Registered  string   `json:"registered,omitempty"`
	Built       string   `json:"built,omitempty"`
}

func databaseStatus(s *catalog.Snapshot) DatabaseStatusResponse {
	out := DatabaseStatusResponse{
		Name:        s.Name,
		State:       string(s.State),
		Version:     s.Version,
		Fingerprint: strconv.FormatUint(s.Fingerprint, 16),
		Demos:       len(s.Demos),
		Registered:  rfc3339(s.Registered),
		Built:       rfc3339(s.Built),
	}
	if s.DB != nil { // stored stubs carry no schema until lazily loaded
		out.Tables = s.DB.TableNames()
	}
	return out
}

// buildDatabase converts the wire schema into the internal model. Cell
// conversion is strict: a cell must be null, a string (text columns) or a
// number (number columns).
func buildDatabase(req RegisterRequest) (*schema.Database, error) {
	db := &schema.Database{Name: req.Name}
	for _, ts := range req.Tables {
		t := &schema.Table{Name: ts.Name, NLName: ts.NLName, PrimaryKey: ts.PrimaryKey}
		if t.NLName == "" {
			t.NLName = ts.Name
		}
		for _, cs := range ts.Columns {
			ct := schema.TypeText
			switch cs.Type {
			case "", "text":
			case "number":
				ct = schema.TypeNumber
			default:
				return nil, fmt.Errorf("table %q column %q: unknown type %q (want text or number)", ts.Name, cs.Name, cs.Type)
			}
			nl := cs.NLName
			if nl == "" {
				nl = cs.Name
			}
			t.Columns = append(t.Columns, schema.Column{Name: cs.Name, Type: ct, NLName: nl})
		}
		for ri, row := range ts.Rows {
			if len(row) != len(t.Columns) {
				return nil, fmt.Errorf("table %q row %d: %d cells for %d columns", ts.Name, ri, len(row), len(t.Columns))
			}
			vals := make([]schema.Value, len(row))
			for ci, cell := range row {
				col := t.Columns[ci]
				switch v := cell.(type) {
				case nil:
					vals[ci] = schema.Null()
				case string:
					if col.Type != schema.TypeText {
						return nil, fmt.Errorf("table %q row %d column %q: string cell in a number column", ts.Name, ri, col.Name)
					}
					vals[ci] = schema.S(v)
				case float64:
					if col.Type != schema.TypeNumber {
						return nil, fmt.Errorf("table %q row %d column %q: numeric cell in a text column", ts.Name, ri, col.Name)
					}
					vals[ci] = schema.N(v)
				default:
					return nil, fmt.Errorf("table %q row %d cell %d: unsupported JSON type %T", ts.Name, ri, ci, cell)
				}
			}
			t.Rows = append(t.Rows, vals)
		}
		db.Tables = append(db.Tables, t)
	}
	for _, fk := range req.ForeignKeys {
		db.ForeignKeys = append(db.ForeignKeys, schema.ForeignKey{
			FromTable: fk.FromTable, FromColumn: fk.FromColumn,
			ToTable: fk.ToTable, ToColumn: fk.ToColumn,
		})
	}
	return db, nil
}

// ---- handlers ----

func (s *Server) decodeRegistration(w http.ResponseWriter, r *http.Request, pathName string) (catalog.Registration, bool) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return catalog.Registration{}, false
	}
	if pathName != "" {
		if req.Name != "" && req.Name != pathName {
			http.Error(w, "body name does not match path", http.StatusBadRequest)
			return catalog.Registration{}, false
		}
		req.Name = pathName
	}
	db, err := buildDatabase(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return catalog.Registration{}, false
	}
	return catalog.Registration{DB: db, Demos: req.Demos}, true
}

func (s *Server) handleDatabaseRegister(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.decodeRegistration(w, r, "")
	if !ok {
		return
	}
	snap, err := s.catalog.Register(reg)
	if !s.writeCatalogError(w, err) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/databases/"+snap.Name)
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(databaseStatus(snap))
}

func (s *Server) handleDatabaseReplace(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.decodeRegistration(w, r, r.PathValue("name"))
	if !ok {
		return
	}
	snap, err := s.catalog.Reregister(reg)
	if !s.writeCatalogError(w, err) {
		return
	}
	writeJSON(w, databaseStatus(snap))
}

// writeCatalogError maps catalog errors to HTTP statuses, reporting whether
// the caller may proceed (err == nil).
func (s *Server) writeCatalogError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, catalog.ErrExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, catalog.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, catalog.ErrBusy):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, catalog.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return false
}

func (s *Server) handleDatabaseGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.catalog.Lookup(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown database", http.StatusNotFound)
		return
	}
	writeJSON(w, databaseStatus(t.Snapshot()))
}

// handleDatabaseAdopt is the resharding hand-off trigger: the router calls
// it when a shard 404s on a tenant the ring places there, asking the shard
// to take over the tenant's persisted state from the shared store. 404
// when no snapshot exists — the client then re-registers from scratch.
func (s *Server) handleDatabaseAdopt(w http.ResponseWriter, r *http.Request) {
	snap, err := s.catalog.AdoptStored(r.PathValue("name"))
	if !s.writeCatalogError(w, err) {
		return
	}
	writeJSON(w, databaseStatus(snap))
}

func (s *Server) handleDatabaseDelete(w http.ResponseWriter, r *http.Request) {
	if !s.writeCatalogError(w, s.catalog.Deregister(r.PathValue("name"))) {
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- tenant-scoped translation ----

// tenantFor resolves a request's database name to a registered tenant, or
// nil when multi-tenancy is disabled or the name is unknown (benchmark
// databases then get their shot). The lookup is recorded as a child span
// when ctx carries a trace.
func (s *Server) tenantFor(ctx context.Context, name string) *catalog.Tenant {
	if s.catalog == nil {
		return nil
	}
	_, sp := trace.StartSpan(ctx, "catalog.lookup")
	t, ok := s.catalog.Lookup(name)
	sp.SetAttrs(trace.Str("database", name), trace.Bool("found", ok))
	sp.Finish()
	if !ok {
		return nil
	}
	return t
}

func (s *Server) translateTenant(w http.ResponseWriter, r *http.Request, t *catalog.Tenant, question string) {
	snap := t.Snapshot()
	trace.FromContext(r.Context()).SetTenant(snap.Name)
	resp := TranslateResponse{Database: snap.Name, State: string(snap.State), Version: snap.Version}
	e, ok := snap.Oracle(question)
	if !ok {
		// No demo close enough to supply the simulated LLM's oracle: serve
		// the retrieval artifacts, as the benchmark free-form path does.
		pruned := classifier.Prune(snap.Pipeline.Classifier(), question, snap.DB, classifier.DefaultPruneConfig())
		resp.PrunedTables = pruned.KeptTables
		for _, p := range snap.Pipeline.Predictor().Predict(question, 3) {
			resp.Skeletons = append(resp.Skeletons, p.Skeleton())
		}
		resp.Note = "no registered demonstration is close enough to this question for a graded translation; retrieval artifacts only"
		writeJSON(w, resp)
		return
	}
	start := time.Now()
	res := snap.Pipeline.TranslateContext(r.Context(), e)
	t.RecordTranslate(time.Since(start))
	em := eval.ExactSetMatchSQL(res.SQL, e.GoldSQL)
	_, esp := trace.StartSpan(r.Context(), "eval.exec_match")
	ex := eval.ExecutionMatch(snap.DB, res.SQL, e.GoldSQL)
	esp.Finish()
	resp.SQL = res.SQL
	resp.Gold = e.GoldSQL
	resp.ExactMatch = &em
	resp.ExecMatch = &ex
	resp.DemosUsed = res.DemosUsed
	resp.TotalTokens = res.InputTokens + res.OutputTokens
	writeJSON(w, resp)
}

// tenantExamples resolves a question list against the tenant's demo pool,
// writing a 400 naming the first unresolvable question on failure.
func (s *Server) tenantExamples(w http.ResponseWriter, snap *catalog.Snapshot, questions []string) ([]*spider.Example, bool) {
	examples := make([]*spider.Example, 0, len(questions))
	for i, q := range questions {
		e, ok := snap.Oracle(q)
		if !ok {
			http.Error(w, fmt.Sprintf("question %d matches no registered demonstration", i), http.StatusBadRequest)
			return nil, false
		}
		examples = append(examples, e)
	}
	return examples, true
}

// countingTranslator wraps a tenant pipeline so batch and async-job
// translations feed the tenant's counters with exact per-item latency.
type countingTranslator struct {
	t     *catalog.Tenant
	inner core.Translator
}

func (c countingTranslator) Name() string { return c.inner.Name() }

func (c countingTranslator) Translate(e *spider.Example) core.Translation {
	return c.TranslateContext(context.Background(), e)
}

// TranslateContext implements core.ContextTranslator so batch engines and
// job runners thread the traced context through to the tenant pipeline.
func (c countingTranslator) TranslateContext(ctx context.Context, e *spider.Example) core.Translation {
	start := time.Now()
	var res core.Translation
	if ct, ok := c.inner.(core.ContextTranslator); ok {
		res = ct.TranslateContext(ctx, e)
	} else {
		res = c.inner.Translate(e)
	}
	c.t.RecordTranslate(time.Since(start))
	return res
}
