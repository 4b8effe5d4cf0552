// Package service exposes the PURPLE pipeline as an HTTP JSON API — the
// deployment surface a downstream user would put in front of a DBMS. It
// serves translation requests against the benchmark databases and reports
// the pipeline's intermediate artifacts for observability.
package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/trace"
)

// maxBatch caps how many tasks one /v1/batch or /v1/jobs request may carry;
// larger requests are rejected with 413 so a single caller cannot monopolize
// the engine.
const maxBatch = 1024

// Server wires a pipeline and a set of databases into an http.Handler.
// pipeline, corpus and byDB are fixed in New, so handlers read them
// without locking.
type Server struct {
	pipeline *core.Pipeline
	corpus   *spider.Corpus
	byDB     map[string][]*spider.Example
	fault    *llm.Fault
	jobs     *jobs.Manager
	catalog  *catalog.Catalog
	reg      *metrics.Registry
	inflight *metrics.Gauge
	tracer   *trace.Tracer
	workers  int

	// shardID, when set, is stamped on every response as X-NL2SQL-Shard so
	// a proxying router (and its clients) can attribute work to the shard
	// that actually served it.
	shardID string

	// resMu guards resCache, the memoized rendered results of finished
	// jobs (ExecutionMatch re-executes SQL, so rendering once per job —
	// not once per poll — matters).
	resMu    sync.Mutex
	resCache map[string][]BatchItem
}

// Option configures optional server features.
type Option func(*Server)

// WithFault mounts the fault-injection control surface (GET/POST /v1/faults)
// for a chaos run: POST toggles the Fault's brownout window (optionally
// reshaping it), GET reports the regimes. Pass the same *llm.Fault the
// server's LLM clients were wrapped with; its injection counters export on
// /v1/metrics as llm_fault_*.
func WithFault(f *llm.Fault) Option { return func(s *Server) { s.fault = f } }

// WithWorkers sets the default /v1/batch worker-pool size (default 4).
func WithWorkers(n int) Option { return func(s *Server) { s.workers = n } }

// WithJobs enables the asynchronous job subsystem (/v1/jobs endpoints): a
// jobs.Manager wrapping the server's pipeline is started with cfg. Call
// Server.Shutdown to drain it.
func WithJobs(cfg jobs.Config) Option {
	return func(s *Server) { s.jobs = jobs.NewManager(s.pipeline, cfg) }
}

// WithJobsManager wires a pre-built jobs.Manager instead of constructing
// one — for callers that share a manager across servers or run jobs through
// a custom Translator. The manager's translations must agree with the
// server's pipeline for result rendering to make sense.
func WithJobsManager(m *jobs.Manager) Option {
	return func(s *Server) { s.jobs = m }
}

// WithCatalog enables the multi-tenant database subsystem: the /v1/databases
// CRUD endpoints, tenant-scoped translate/execute/batch/jobs, and per-tenant
// series on /v1/metrics. The caller owns the catalog's lifecycle.
func WithCatalog(c *catalog.Catalog) Option {
	return func(s *Server) { s.catalog = c }
}

// WithShardID marks this server as one shard of a routed topology: every
// response carries an X-NL2SQL-Shard header naming the serving shard, so
// hedged and retried requests stay attributable end to end.
func WithShardID(id string) Option { return func(s *Server) { s.shardID = id } }

// ShardHeader is the response header naming the shard that served a
// request. The router echoes the upstream's value outward (or fills in its
// own target when the shard predates attribution).
const ShardHeader = "X-NL2SQL-Shard"

// WithTracer enables request tracing: every route opens a root span
// (honoring inbound W3C traceparent), the pipeline/catalog/jobs/execution
// layers open children through the request context, and GET /v1/traces
// serves the capture rings. A nil tracer leaves tracing disabled.
func WithTracer(t *trace.Tracer) Option { return func(s *Server) { s.tracer = t } }

// New builds a server around a constructed pipeline and its corpus. The
// server owns a metrics registry (see Registry): every route records
// per-status request counts and a latency histogram, and GET /v1/metrics
// serves it in Prometheus text format.
func New(p *core.Pipeline, c *spider.Corpus, opts ...Option) *Server {
	reg := metrics.NewRegistry()
	s := &Server{
		pipeline: p, corpus: c, byDB: map[string][]*spider.Example{},
		reg:      reg,
		inflight: reg.Gauge("http_inflight_requests", "HTTP requests currently being served."),
		workers:  4,
		resCache: map[string][]BatchItem{},
	}
	for _, e := range c.Dev.Examples {
		key := strings.ToLower(e.DB.Name)
		s.byDB[key] = append(s.byDB[key], e)
	}
	for _, o := range opts {
		o(s)
	}
	if s.jobs != nil {
		// Memoized result renderings must die with their jobs: the TTL GC
		// reports evicted IDs and the hook drops the matching cache rows.
		s.jobs.OnEvict(func(ids []string) {
			s.resMu.Lock()
			for _, id := range ids {
				delete(s.resCache, id)
			}
			s.resMu.Unlock()
		})
	}
	// Subsystem counters are exported by scrape-time collectors: the owning
	// packages keep their existing atomic counters and contribute samples
	// only when /v1/metrics is scraped.
	sqlexec.Shared.Instrument(reg, "shared")
	if s.jobs != nil {
		s.jobs.Instrument(reg)
	}
	if s.catalog != nil {
		s.catalog.Instrument(reg)
	}
	if s.fault != nil {
		s.fault.Instrument(reg)
	}
	return s
}

// Registry exposes the server's metrics registry, so the caller can register
// what the server does not own — process gauges, the pipeline's LLM cache —
// on the same /v1/metrics exposition.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Shutdown gracefully drains the job subsystem: admission stops, queued
// jobs are cancelled, and running jobs get until ctx expires to finish
// before being cancelled with partial results. It is a no-op when jobs are
// disabled.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Shutdown(ctx)
}

// Handler returns the route table. Every endpoint lives under /v1 with
// method guards enforced by the mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// handle wraps every route in the metrics and tracing middleware; the
	// registered pattern doubles as the route label, keeping label
	// cardinality bounded by the route table.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("GET /v1/databases", s.handleDatabases)
	handle("POST /v1/translate", s.handleTranslate)
	handle("POST /v1/execute", s.handleExecute)
	handle("POST /v1/batch", s.handleBatch)
	handle("GET /v1/metrics", s.reg.ServeHTTP)
	if s.tracer != nil {
		handle("GET /v1/traces", s.tracer.ServeList)
		handle("GET /v1/traces/{id}", s.handleTraceGet)
	}
	if s.catalog != nil {
		handle("POST /v1/databases", s.handleDatabaseRegister)
		handle("GET /v1/databases/{name}", s.handleDatabaseGet)
		handle("PUT /v1/databases/{name}", s.handleDatabaseReplace)
		handle("DELETE /v1/databases/{name}", s.handleDatabaseDelete)
		handle("POST /v1/databases/{name}/adopt", s.handleDatabaseAdopt)
	}
	if s.fault != nil {
		handle("GET /v1/faults", s.handleFaultGet)
		handle("POST /v1/faults", s.handleFaultSet)
	}
	if s.jobs != nil {
		handle("POST /v1/jobs", s.handleJobCreate)
		handle("GET /v1/jobs", s.handleJobList)
		handle("GET /v1/jobs/{id}", s.handleJobGet)
		handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	})
	if s.shardID != "" {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(ShardHeader, s.shardID)
			mux.ServeHTTP(w, r)
		})
	}
	return mux
}

// lookupTasks resolves task IDs to dev examples, writing a 404 and
// returning ok=false on any out-of-range ID.
func (s *Server) lookupTasks(w http.ResponseWriter, ids []int) ([]*spider.Example, bool) {
	examples := make([]*spider.Example, 0, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(s.corpus.Dev.Examples) {
			http.Error(w, "task_id out of range", http.StatusNotFound)
			return nil, false
		}
		examples = append(examples, s.corpus.Dev.Examples[id])
	}
	return examples, true
}

type databaseInfo struct {
	Name   string   `json:"name"`
	Tables []string `json:"tables"`
	// Source is "benchmark" for corpus databases, "tenant" for registered
	// ones; tenants additionally carry their state and version.
	Source  string `json:"source"`
	State   string `json:"state,omitempty"`
	Version int    `json:"version,omitempty"`
}

func (s *Server) handleDatabases(w http.ResponseWriter, r *http.Request) {
	var out []databaseInfo
	for _, db := range s.corpus.Dev.Databases {
		out = append(out, databaseInfo{Name: db.Name, Tables: db.TableNames(), Source: "benchmark"})
	}
	if s.catalog != nil {
		for _, snap := range s.catalog.List() {
			info := databaseInfo{
				Name:   snap.Name,
				Source: "tenant", State: string(snap.State), Version: snap.Version,
			}
			if snap.DB != nil { // stored stubs carry no schema until loaded
				info.Tables = snap.DB.TableNames()
			}
			out = append(out, info)
		}
	}
	writeJSON(w, out)
}

// TranslateRequest asks for a translation of a dev task (by id) or a
// free-form question against a database. For a registered tenant database
// the full pipeline runs (the question is resolved against the tenant's
// demonstration pool); for a benchmark database the response carries
// retrieval artifacts only — the simulated LLM needs a task oracle to
// complete the generation half.
type TranslateRequest struct {
	TaskID   *int   `json:"task_id,omitempty"`
	Database string `json:"database,omitempty"`
	Question string `json:"question,omitempty"`
}

// TranslateResponse reports the SQL and pipeline artifacts. Database,
// State and Version identify the serving tenant snapshot on tenant-scoped
// requests.
type TranslateResponse struct {
	SQL          string   `json:"sql,omitempty"`
	Gold         string   `json:"gold,omitempty"`
	ExactMatch   *bool    `json:"exact_match,omitempty"`
	ExecMatch    *bool    `json:"exec_match,omitempty"`
	DemosUsed    int      `json:"demos_used,omitempty"`
	TotalTokens  int      `json:"total_tokens,omitempty"`
	PrunedTables []string `json:"pruned_tables,omitempty"`
	Skeletons    []string `json:"skeletons,omitempty"`
	Database     string   `json:"database,omitempty"`
	State        string   `json:"state,omitempty"`
	Version      int      `json:"version,omitempty"`
	Note         string   `json:"note,omitempty"`
	Error        string   `json:"error,omitempty"`
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	var req TranslateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	switch {
	case req.TaskID != nil:
		id := *req.TaskID
		if id < 0 || id >= len(s.corpus.Dev.Examples) {
			http.Error(w, "task_id out of range", http.StatusNotFound)
			return
		}
		e := s.corpus.Dev.Examples[id]
		res := s.pipeline.TranslateContext(r.Context(), e)
		em := eval.ExactSetMatchSQL(res.SQL, e.GoldSQL)
		_, esp := trace.StartSpan(r.Context(), "eval.exec_match")
		ex := eval.ExecutionMatch(e.DB, res.SQL, e.GoldSQL)
		esp.Finish()
		writeJSON(w, TranslateResponse{
			SQL: res.SQL, Gold: e.GoldSQL,
			ExactMatch: &em, ExecMatch: &ex,
			DemosUsed:   res.DemosUsed,
			TotalTokens: res.InputTokens + res.OutputTokens,
		})
	case req.Database != "" && req.Question != "":
		if t := s.tenantFor(r.Context(), req.Database); t != nil {
			s.translateTenant(w, r, t, req.Question)
			return
		}
		examples := s.byDB[strings.ToLower(req.Database)]
		if len(examples) == 0 {
			http.Error(w, "unknown database", http.StatusNotFound)
			return
		}
		db := examples[0].DB
		pruned := classifier.Prune(s.pipeline.Classifier(), req.Question, db, classifier.DefaultPruneConfig())
		var skels []string
		for _, p := range s.pipeline.Predictor().Predict(req.Question, 3) {
			skels = append(skels, p.Skeleton())
		}
		writeJSON(w, TranslateResponse{PrunedTables: pruned.KeptTables, Skeletons: skels})
	default:
		http.Error(w, "need task_id or database+question", http.StatusBadRequest)
	}
}

// BatchRequest asks for translations of a set of dev tasks (task_ids) or,
// for a registered tenant database, a set of free-form questions resolved
// against the tenant's demonstration pool. Exactly one of the two forms
// must be used; both fan across a bounded worker pool.
type BatchRequest struct {
	TaskIDs []int `json:"task_ids,omitempty"`
	// Database plus Questions selects the tenant-scoped form.
	Database  string   `json:"database,omitempty"`
	Questions []string `json:"questions,omitempty"`
	// Workers overrides the server's default pool size when > 0.
	Workers int `json:"workers,omitempty"`
}

// BatchItem is one task's outcome within a batch.
type BatchItem struct {
	TaskID     int    `json:"task_id"`
	SQL        string `json:"sql"`
	Gold       string `json:"gold"`
	ExactMatch bool   `json:"exact_match"`
	ExecMatch  bool   `json:"exec_match"`
	DemosUsed  int    `json:"demos_used"`
}

// BatchResponse reports per-task results (in request order) plus aggregate
// accounting from the engine.
type BatchResponse struct {
	Results      []BatchItem `json:"results"`
	Completed    int         `json:"completed"`
	InputTokens  int         `json:"input_tokens"`
	OutputTokens int         `json:"output_tokens"`
	DemosUsed    int         `json:"demos_used"`
	Workers      int         `json:"workers"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	in, ok := s.resolveBatch(w, r, req.TaskIDs, req.Database, req.Questions)
	if !ok {
		return
	}
	tr := in.tenant
	if tr == nil {
		tr = s.pipeline
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.workers
	}
	eng := core.NewEngine(tr, workers)
	results, stats, err := eng.TranslateBatch(r.Context(), in.examples)
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestTimeout)
		return
	}
	writeJSON(w, BatchResponse{
		Results:      batchItems(in.ids, in.examples, results, nil),
		Completed:    stats.Completed,
		InputTokens:  stats.InputTokens,
		OutputTokens: stats.OutputTokens,
		DemosUsed:    stats.DemosUsed,
		Workers:      eng.Workers(),
	})
}

// batchInput is a validated /v1/batch or /v1/jobs input: the examples to
// translate and the task IDs that label their results (nil for a tenant's
// questions, labeled by position). tenant is the tenant's counting pipeline,
// nil for dev tasks, which run on the server's own pipeline.
type batchInput struct {
	examples []*spider.Example
	ids      []int
	tenant   core.Translator
}

// resolveBatch validates the input /v1/batch and /v1/jobs share: dev task
// IDs, or a registered tenant's database plus questions, resolved against
// the tenant's demonstration pool with its snapshot pinned now. On a bad
// input it writes the error response and returns ok=false.
func (s *Server) resolveBatch(w http.ResponseWriter, r *http.Request, taskIDs []int, database string, questions []string) (batchInput, bool) {
	if database == "" || s.catalog == nil {
		if len(taskIDs) == 0 {
			http.Error(w, "task_ids is empty", http.StatusBadRequest)
			return batchInput{}, false
		}
		if len(taskIDs) > maxBatch {
			http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
			return batchInput{}, false
		}
		examples, ok := s.lookupTasks(w, taskIDs)
		return batchInput{examples: examples, ids: taskIDs}, ok
	}
	if len(taskIDs) > 0 {
		http.Error(w, "use task_ids or database+questions, not both", http.StatusBadRequest)
		return batchInput{}, false
	}
	if len(questions) == 0 {
		http.Error(w, "questions is empty", http.StatusBadRequest)
		return batchInput{}, false
	}
	if len(questions) > maxBatch {
		http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
		return batchInput{}, false
	}
	t := s.tenantFor(r.Context(), database)
	if t == nil {
		http.Error(w, "unknown database", http.StatusNotFound)
		return batchInput{}, false
	}
	trace.FromContext(r.Context()).SetTenant(database)
	snap := t.Snapshot()
	examples, ok := s.tenantExamples(w, snap, questions)
	return batchInput{examples: examples, tenant: countingTranslator{t: t, inner: snap.Pipeline}}, ok
}

// batchItems grades translations against their tasks' gold SQL, in input
// order. ids label the items (nil labels by position); done, when non-nil,
// marks the slots a cancelled job translated before it stopped.
func batchItems(ids []int, examples []*spider.Example, results []core.Translation, done []bool) []BatchItem {
	var items []BatchItem
	for i, res := range results {
		if i < len(done) && !done[i] || i >= len(examples) {
			continue
		}
		taskID := i
		if ids != nil {
			taskID = ids[i]
		}
		e := examples[i]
		items = append(items, BatchItem{
			TaskID:     taskID,
			SQL:        res.SQL,
			Gold:       e.GoldSQL,
			ExactMatch: eval.ExactSetMatchSQL(res.SQL, e.GoldSQL),
			ExecMatch:  eval.ExecutionMatch(e.DB, res.SQL, e.GoldSQL),
			DemosUsed:  res.DemosUsed,
		})
	}
	return items
}

// ExecuteRequest runs read-only SQL against a benchmark database.
type ExecuteRequest struct {
	Database string `json:"database"`
	SQL      string `json:"sql"`
}

// ExecuteResponse carries the rows (stringified) or an error message.
type ExecuteResponse struct {
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Error   string     `json:"error,omitempty"`
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecuteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Tenant databases execute through their snapshot's own plan cache, so
	// one tenant's query mix cannot evict another's plans.
	if t := s.tenantFor(r.Context(), req.Database); t != nil {
		trace.FromContext(r.Context()).SetTenant(req.Database)
		snap := t.Snapshot()
		t.RecordExec()
		res, err := snap.Plans.ExecCtx(r.Context(), snap.DB, req.SQL)
		writeExecResult(w, res, err)
		return
	}
	examples := s.byDB[strings.ToLower(req.Database)]
	if len(examples) == 0 {
		http.Error(w, "unknown database", http.StatusNotFound)
		return
	}
	// Prepared through the shared plan cache: repeated dashboard/monitoring
	// queries against a benchmark database skip parsing and planning.
	res, err := sqlexec.Shared.ExecCtx(r.Context(), examples[0].DB, req.SQL)
	writeExecResult(w, res, err)
}

// writeExecResult renders an execution outcome as an ExecuteResponse.
func writeExecResult(w http.ResponseWriter, res *sqlexec.Result, err error) {
	if err != nil {
		writeJSON(w, ExecuteResponse{Error: err.Error()})
		return
	}
	out := ExecuteResponse{Columns: res.Cols}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out.Rows = append(out.Rows, cells)
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Encode streams straight to the wire: by the time it can fail (client
	// gone mid-body), the status line has been sent, so answering with
	// http.Error would only double-write the header.
	_ = json.NewEncoder(w).Encode(v)
}
