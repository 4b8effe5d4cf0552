// Package loadgen is the HTTP load generator for the nl2sql service: it
// drives the real serving stack (router, middleware, JSON codecs, pipeline,
// caches) rather than in-process benchmarks, and reports throughput, error
// rate and latency percentiles as a JSON report under the benchfmt
// provenance header, so the perf trajectory of the HTTP path is as
// machine-checkable as the executor's.
//
// Two driving disciplines:
//
//   - Closed loop (Rate == 0): Workers goroutines issue requests
//     back-to-back. Measures capacity — what the server can sustain when the
//     clients saturate it.
//   - Open loop (Rate > 0): requests are dispatched on a fixed-rate clock
//     regardless of how long earlier ones take, the discipline that exposes
//     queueing delay honestly (a closed loop co-ordinates with the server's
//     slowness and hides it). Dispatches that would exceed MaxInFlight are
//     counted as dropped rather than silently coalesced.
//
// The request mix fans across the service surface: single translations,
// /execute SQL, /v1/batch fan-outs and async /v1/jobs submissions, against
// the benchmark corpus or against Tenants freshly registered synthetic
// tenant databases (exercising the multi-tenant catalog hot path).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Buckets for request latency in seconds: finer than metrics.DefBuckets at
// the fast end because percentile resolution is the whole point here.
var latencyBuckets = []float64{
	0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
	0.1, 0.2, 0.5, 1, 2, 5, 10,
}

// Mix weights the request types; a zero weight disables the type. The zero
// Mix is replaced by DefaultMix.
type Mix struct {
	Translate int `json:"translate"`
	Execute   int `json:"execute"`
	Batch     int `json:"batch"`
	Jobs      int `json:"jobs"`
}

// DefaultMix leans on the two hot-path endpoints with a trickle of batch and
// async traffic.
var DefaultMix = Mix{Translate: 4, Execute: 4, Batch: 1, Jobs: 1}

func (m Mix) total() int { return m.Translate + m.Execute + m.Batch + m.Jobs }

// ParseMix parses "translate=4,execute=4,batch=1,jobs=1" (absent types get
// weight 0; an empty string means DefaultMix).
func ParseMix(s string) (Mix, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultMix, nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Mix{}, fmt.Errorf("loadgen: bad mix entry %q (want type=weight)", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: bad mix weight %q", kv[1])
		}
		switch strings.ToLower(kv[0]) {
		case "translate":
			m.Translate = w
		case "execute":
			m.Execute = w
		case "batch":
			m.Batch = w
		case "jobs":
			m.Jobs = w
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown request type %q", kv[0])
		}
	}
	if m.total() == 0 {
		return Mix{}, fmt.Errorf("loadgen: mix has zero total weight")
	}
	return m, nil
}

// Config parameterizes a run. BaseURL and Duration are required; everything
// else has a default noted on the field.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8080". A comma-
	// separated list fans requests round-robin across several equivalent
	// fronts — redundant routers over one shard set, or any targets that
	// serve a consistent view of the same tenants.
	BaseURL string
	// Duration is how long to generate load.
	Duration time.Duration
	// Workers is the closed-loop concurrency (default 8); in open-loop mode
	// it only sizes the connection pool.
	Workers int
	// Rate > 0 selects open-loop mode at that many requests/second.
	Rate float64
	// RateEnd > 0 turns the open loop into a linear ramp: the dispatch rate
	// slides from Rate to RateEnd over Duration (requires Rate > 0). Zero
	// keeps the classic constant-rate clock.
	RateEnd float64
	// MaxInFlight bounds open-loop concurrency; dispatches beyond it are
	// counted as dropped (default 256).
	MaxInFlight int
	// Mix weights the request types (zero value = DefaultMix).
	Mix Mix
	// Tasks is the dev task-id range [0,Tasks) translate/batch/jobs draw
	// from (default 16). Must not exceed the server's dev-set size.
	Tasks int
	// BatchSize is the task count per /v1/batch and /v1/jobs request
	// (default 8).
	BatchSize int
	// Tenants > 0 registers that many synthetic tenant databases up front
	// and directs translate/execute/batch/jobs at them round-robin,
	// exercising the multi-tenant catalog path instead of the benchmark
	// corpus.
	Tenants int
	// Seed drives the deterministic request mix (default 1).
	Seed int64
	// Timeout is the per-request client timeout (default 30s).
	Timeout time.Duration
	// TraceSample, when > 0, stamps that fraction of requests with a
	// sampled W3C traceparent. The edge decision wins server-side: stamped
	// requests are always recorded (whatever the server's own -trace-sample),
	// and their trace IDs feed the per-op slow-trace report rows.
	TraceSample float64
	// SlowTraces is how many of the slowest sampled requests to report per
	// op (default 5).
	SlowTraces int
	// Client overrides the HTTP client (tests); when nil the process-wide
	// pooled client is used, sized to the run's in-flight bound.
	Client *http.Client

	// targets is BaseURL split and normalized by withDefaults.
	targets []string
}

// The pooled transport is process-wide: successive runs (and concurrent
// multi-target runs) reuse one warm connection pool instead of each
// building a transport whose sockets die with the run. The per-host idle
// cap only ratchets up — a small run after a big one must not shrink the
// pool under the big run's feet.
var (
	transportMu     sync.Mutex
	sharedTr        *http.Transport
	sharedTrPerHost int
)

// pooledClient returns a client over the shared transport with the per-host
// idle-connection cap raised to at least bound — the run's worst-case
// in-flight count, so closed-loop workers (and open-loop bursts up to
// MaxInFlight) never cycle connections through TIME_WAIT.
func pooledClient(bound int, timeout time.Duration) *http.Client {
	transportMu.Lock()
	defer transportMu.Unlock()
	if sharedTr == nil {
		sharedTr = http.DefaultTransport.(*http.Transport).Clone()
	}
	if bound > sharedTrPerHost {
		sharedTrPerHost = bound
		sharedTr.MaxIdleConnsPerHost = bound
		if sharedTr.MaxIdleConns < 2*bound {
			sharedTr.MaxIdleConns = 2 * bound
		}
	}
	return &http.Client{Timeout: timeout, Transport: sharedTr}
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("loadgen: BaseURL is required")
	}
	c.targets = c.targets[:0]
	for _, u := range strings.Split(c.BaseURL, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			c.targets = append(c.targets, u)
		}
	}
	if len(c.targets) == 0 {
		return c, fmt.Errorf("loadgen: BaseURL holds no usable targets")
	}
	c.BaseURL = c.targets[0]
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: Duration must be positive")
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.RateEnd < 0 || c.Rate < 0 {
		return c, fmt.Errorf("loadgen: negative rates (rate %g, rate-end %g)", c.Rate, c.RateEnd)
	}
	if c.RateEnd > 0 && c.Rate == 0 {
		return c, fmt.Errorf("loadgen: RateEnd requires an open loop (Rate > 0)")
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix
	}
	if c.Tasks <= 0 {
		c.Tasks = 16
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.SlowTraces <= 0 {
		c.SlowTraces = 5
	}
	if c.Client == nil {
		// The in-flight bound: closed loop = the worker count, open loop =
		// whatever MaxInFlight admits (dispatch goroutines, not workers,
		// carry the concurrency there).
		bound := c.Workers + 16
		if c.Rate > 0 && c.MaxInFlight > bound {
			bound = c.MaxInFlight
		}
		c.Client = pooledClient(bound, c.Timeout)
	}
	return c, nil
}

// LatencyMs summarizes a latency distribution in milliseconds. P50/P95/P99
// are interpolated from the fixed-bucket histogram (error bounded by bucket
// width); Mean and Max are exact.
type LatencyMs struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// OpResult is one request type's outcome (plus the "all" aggregate row).
type OpResult struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	// Errors are transport-level failures (no HTTP response); Non2xx are
	// HTTP responses outside 2xx, of which Status429 counts the admission-
	// control shed (queue-full / over-capacity) subset. Dropped counts
	// open-loop dispatches shed because MaxInFlight was reached (never
	// sent, not in Requests).
	Errors    int64 `json:"errors"`
	Non2xx    int64 `json:"non_2xx"`
	Status429 int64 `json:"status_429,omitempty"`
	Dropped   int64 `json:"dropped,omitempty"`
	// ThroughputRPS covers sent requests only. ErrorRate is the gate input:
	// errors, non-2xx AND generator-side drops, over the offered load
	// (Requests + Dropped) — a drop never reaches the latency histogram (it
	// was never sent) but must not make the error rate look better.
	ThroughputRPS float64   `json:"throughput_rps"`
	ErrorRate     float64   `json:"error_rate"`
	LatencyMs     LatencyMs `json:"latency_ms"`
	// SlowTraces lists the op's slowest traceparent-stamped requests
	// (present only when Config.TraceSample > 0): the IDs to feed straight
	// into GET /v1/traces/{id} for the full cross-process span tree.
	SlowTraces []SlowTrace `json:"slow_traces,omitempty"`
}

// SlowTrace pairs a sampled request's trace ID with its client-side latency.
type SlowTrace struct {
	TraceID    string  `json:"trace_id"`
	DurationMs float64 `json:"duration_ms"`
}

// slowTracker keeps the n slowest sampled requests, sorted slowest-first.
// A plain locked insertion keeps it simple: it only runs for sampled
// requests and n is small.
type slowTracker struct {
	mu  sync.Mutex
	n   int
	top []SlowTrace
}

func (s *slowTracker) observe(id string, d time.Duration) {
	ms := float64(d) / 1e6
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.top) >= s.n && ms <= s.top[len(s.top)-1].DurationMs {
		return
	}
	i := sort.Search(len(s.top), func(i int) bool { return s.top[i].DurationMs < ms })
	s.top = append(s.top, SlowTrace{})
	copy(s.top[i+1:], s.top[i:])
	s.top[i] = SlowTrace{TraceID: id, DurationMs: ms}
	if len(s.top) > s.n {
		s.top = s.top[:s.n]
	}
}

func (s *slowTracker) snapshot() []SlowTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SlowTrace(nil), s.top...)
}

// Report is the run's machine-readable result under the benchfmt
// provenance header the scenario report also carries.
type Report struct {
	benchfmt.Header
	// Mode is "closed" or "open".
	Mode            string  `json:"mode"`
	DurationSeconds float64 `json:"duration_seconds"`
	Workers         int     `json:"workers"`
	RateRPS         float64 `json:"rate_rps,omitempty"`
	RateEndRPS      float64 `json:"rate_end_rps,omitempty"`
	Tenants         int     `json:"tenants"`
	Seed            int64   `json:"seed"`
	// Results carries one row per active request type plus the "all"
	// aggregate, which is always last.
	Results []OpResult `json:"results"`
}

// All returns the aggregate row.
func (r *Report) All() OpResult {
	for _, res := range r.Results {
		if res.Name == "all" {
			return res
		}
	}
	return OpResult{}
}

// opStats accumulates one request type's measurements.
type opStats struct {
	name      string
	requests  atomic.Int64
	errors    atomic.Int64
	non2xx    atomic.Int64
	status429 atomic.Int64
	dropped   atomic.Int64
	hist      *metrics.Histogram
	slow      *slowTracker
}

type runner struct {
	cfg     Config
	ops     []string // weighted op names, one entry per weight unit
	stats   map[string]*opStats
	order   []string
	execSQL []execTarget // benchmark-database execute targets
	tenants []string
	rrc     atomic.Uint64 // round-robin cursor over cfg.targets
}

// target picks the next base URL round-robin (a single target is the
// overwhelmingly common case and skips the counter).
func (r *runner) target() string {
	if len(r.cfg.targets) == 1 {
		return r.cfg.targets[0]
	}
	return r.cfg.targets[int(r.rrc.Add(1)%uint64(len(r.cfg.targets)))]
}

type execTarget struct {
	Database string
	SQL      string
}

// Run executes the configured load and returns the report. The context
// cancels the run early (the report covers whatever completed).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, stats: map[string]*opStats{}}
	for name, w := range map[string]int{
		"translate": cfg.Mix.Translate,
		"execute":   cfg.Mix.Execute,
		"batch":     cfg.Mix.Batch,
		"jobs":      cfg.Mix.Jobs,
	} {
		if w <= 0 {
			continue
		}
		r.stats[name] = &opStats{
			name: name,
			hist: metrics.NewHistogram(latencyBuckets),
			slow: &slowTracker{n: cfg.SlowTraces},
		}
		for i := 0; i < w; i++ {
			r.ops = append(r.ops, name)
		}
	}
	sort.Strings(r.ops) // deterministic op table independent of map order
	for name := range r.stats {
		r.order = append(r.order, name)
	}
	sort.Strings(r.order)

	if cfg.Tenants > 0 {
		if err := r.registerTenants(ctx); err != nil {
			return nil, err
		}
	} else if r.stats["execute"] != nil {
		if err := r.discoverExecTargets(ctx); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	deadline, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	if cfg.Rate > 0 {
		r.openLoop(deadline)
	} else {
		r.closedLoop(deadline)
	}
	elapsed := time.Since(start)

	return r.report(elapsed), nil
}

// closedLoop: Workers goroutines issuing back-to-back requests.
func (r *runner) closedLoop(ctx context.Context) {
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(me)))
			for ctx.Err() == nil {
				r.do(ctx, rng.Intn(len(r.ops)), rng)
			}
		}(w)
	}
	wg.Wait()
}

// rateAt is the open loop's target dispatch rate after elapsed run time:
// constant at Rate classically, or sliding linearly to RateEnd over the
// configured Duration when a ramp was requested.
func (r *runner) rateAt(elapsed time.Duration) float64 {
	if r.cfg.RateEnd <= 0 || r.cfg.RateEnd == r.cfg.Rate {
		return r.cfg.Rate
	}
	frac := float64(elapsed) / float64(r.cfg.Duration)
	if frac > 1 {
		frac = 1
	}
	return r.cfg.Rate + (r.cfg.RateEnd-r.cfg.Rate)*frac
}

// openLoop: dispatch on a rate clock, independent of response times. The
// next dispatch instant is scheduled in absolute time from the current
// target rate, so a ramp stays an honest open loop: a slow server delays
// nothing, and a generator that falls behind catches up in a burst rather
// than silently rescaling the offered load.
func (r *runner) openLoop(ctx context.Context) {
	sem := make(chan struct{}, r.cfg.MaxInFlight)
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	var wg sync.WaitGroup
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	start := time.Now()
	next := start
	for {
		rate := r.rateAt(time.Since(start))
		interval := time.Duration(float64(time.Second) / rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				wg.Wait()
				return
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			return
		}
		op := rng.Intn(len(r.ops))
		// Per-request deterministic sub-seed: the worker rng below must
		// not be shared across goroutines.
		sub := rng.Int63()
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				r.do(ctx, op, rand.New(rand.NewSource(sub)))
			}()
		default:
			// The server (or the pool bound) can't keep up with the
			// offered rate; shedding here keeps the clock honest instead
			// of letting the generator degrade into a closed loop.
			r.stats[r.ops[op]].dropped.Add(1)
		}
	}
}

// traceKey carries a pre-rendered traceparent header value from do to post
// through the context — the op helpers between them stay trace-unaware.
type traceKey struct{}

// do issues one request of the given weighted-op index and records it.
func (r *runner) do(ctx context.Context, opIdx int, rng *rand.Rand) {
	name := r.ops[opIdx]
	st := r.stats[name]
	var (
		status  int
		err     error
		traceID string
	)
	if r.cfg.TraceSample > 0 && rng.Float64() < r.cfg.TraceSample {
		// Stamp the request with a fresh sampled trace context; the sampled
		// flag forces recording at the router/shard regardless of their own
		// head-sampling rate, so the slow-trace IDs below always resolve.
		sc := trace.NewSpanContext(true)
		ctx = context.WithValue(ctx, traceKey{}, sc.Header())
		traceID = sc.TraceID.String()
	}
	start := time.Now()
	switch name {
	case "translate":
		status, err = r.doTranslate(ctx, rng)
	case "execute":
		status, err = r.doExecute(ctx, rng)
	case "batch":
		status, err = r.doBatch(ctx, rng)
	case "jobs":
		status, err = r.doJobs(ctx, rng)
	}
	if err != nil {
		if ctx.Err() != nil {
			// The run deadline tore the request down mid-flight; that is the
			// harness stopping, not the server failing.
			return
		}
		st.requests.Add(1)
		st.errors.Add(1)
		return
	}
	st.requests.Add(1)
	st.hist.ObserveSince(start)
	if traceID != "" {
		st.slow.observe(traceID, time.Since(start))
	}
	if status/100 != 2 {
		st.non2xx.Add(1)
		if status == http.StatusTooManyRequests {
			st.status429.Add(1)
		}
	}
}

// post issues a JSON POST and drains the response body (keep-alive reuse).
func (r *runner) post(ctx context.Context, path string, body any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.target()+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp, ok := ctx.Value(traceKey{}).(string); ok {
		req.Header.Set(trace.TraceparentHeader, tp)
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func (r *runner) doTranslate(ctx context.Context, rng *rand.Rand) (int, error) {
	if len(r.tenants) > 0 {
		tenant := r.tenants[rng.Intn(len(r.tenants))]
		q := tenantQuestions[rng.Intn(len(tenantQuestions))]
		return r.post(ctx, "/v1/translate", map[string]any{"database": tenant, "question": q})
	}
	return r.post(ctx, "/v1/translate", map[string]any{"task_id": rng.Intn(r.cfg.Tasks)})
}

func (r *runner) doExecute(ctx context.Context, rng *rand.Rand) (int, error) {
	if len(r.tenants) > 0 {
		tenant := r.tenants[rng.Intn(len(r.tenants))]
		sql := tenantQueries[rng.Intn(len(tenantQueries))]
		return r.post(ctx, "/v1/execute", map[string]any{"database": tenant, "sql": sql})
	}
	t := r.execSQL[rng.Intn(len(r.execSQL))]
	return r.post(ctx, "/v1/execute", map[string]any{"database": t.Database, "sql": t.SQL})
}

func (r *runner) taskIDs(rng *rand.Rand) []int {
	ids := make([]int, r.cfg.BatchSize)
	for i := range ids {
		ids[i] = rng.Intn(r.cfg.Tasks)
	}
	return ids
}

func (r *runner) doBatch(ctx context.Context, rng *rand.Rand) (int, error) {
	if len(r.tenants) > 0 {
		tenant := r.tenants[rng.Intn(len(r.tenants))]
		qs := make([]string, r.cfg.BatchSize)
		for i := range qs {
			qs[i] = tenantQuestions[rng.Intn(len(tenantQuestions))]
		}
		return r.post(ctx, "/v1/batch", map[string]any{"database": tenant, "questions": qs})
	}
	return r.post(ctx, "/v1/batch", map[string]any{"task_ids": r.taskIDs(rng)})
}

func (r *runner) doJobs(ctx context.Context, rng *rand.Rand) (int, error) {
	if len(r.tenants) > 0 {
		tenant := r.tenants[rng.Intn(len(r.tenants))]
		qs := make([]string, r.cfg.BatchSize)
		for i := range qs {
			qs[i] = tenantQuestions[rng.Intn(len(tenantQuestions))]
		}
		return r.post(ctx, "/v1/jobs", map[string]any{"database": tenant, "questions": qs, "label": "loadgen"})
	}
	return r.post(ctx, "/v1/jobs", map[string]any{"task_ids": r.taskIDs(rng), "label": "loadgen"})
}

// discoverExecTargets learns the benchmark databases (and a table each) from
// GET /v1/databases, so /execute traffic needs no hand-configured SQL.
func (r *runner) discoverExecTargets(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.target()+"/v1/databases", nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: discovering databases: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: GET /v1/databases: %d", resp.StatusCode)
	}
	var dbs []struct {
		Name   string   `json:"name"`
		Tables []string `json:"tables"`
		Source string   `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbs); err != nil {
		return fmt.Errorf("loadgen: decoding /v1/databases: %v", err)
	}
	for _, db := range dbs {
		if db.Source != "benchmark" || len(db.Tables) == 0 {
			continue
		}
		r.execSQL = append(r.execSQL, execTarget{
			Database: db.Name,
			SQL:      "SELECT COUNT(*) FROM " + db.Tables[0],
		})
	}
	if len(r.execSQL) == 0 {
		return fmt.Errorf("loadgen: no benchmark databases discovered for /execute traffic")
	}
	return nil
}

// The synthetic tenant fixture: a tiny shop database whose demo pool doubles
// as the question corpus (the simulated LLM needs the demo oracle, and exact
// demo questions always resolve).
var (
	tenantQuestions = []string{
		"How many items are there?",
		"What is the average price of all items?",
		"List the names of all items.",
	}
	tenantQueries = []string{
		"SELECT COUNT(*) FROM items",
		"SELECT AVG(price) FROM items",
		"SELECT name FROM items ORDER BY price",
	}
)

func tenantRegistration(name string) map[string]any {
	return map[string]any{
		"name": name,
		"tables": []map[string]any{{
			"name":        "items",
			"primary_key": "id",
			"columns": []map[string]any{
				{"name": "id", "type": "number"},
				{"name": "name", "type": "text"},
				{"name": "price", "type": "number"},
			},
			"rows": [][]any{
				{1.0, "anvil", 9.5},
				{2.0, "rope", 3.25},
				{3.0, "lantern", 12.0},
				{4.0, "compass", 27.5},
			},
		}},
		"demos": []map[string]any{
			{"question": tenantQuestions[0], "sql": tenantQueries[0]},
			{"question": tenantQuestions[1], "sql": tenantQueries[1]},
			{"question": tenantQuestions[2], "sql": "SELECT name FROM items"},
		},
	}
}

// RegisterTenant registers the loadgen synthetic tenant fixture under the
// given name against baseURL. Scenario churn and register-storm drivers
// reuse it so the traffic ops' question corpus keeps resolving on whatever
// tenant set a phase leaves behind. Returns the HTTP status without judging
// it (201 created, 409 already there, 429/503 under pressure are all
// interesting to a caller measuring churn).
func RegisterTenant(ctx context.Context, client *http.Client, baseURL, name string) (int, error) {
	data, err := json.Marshal(tenantRegistration(name))
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/databases", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// DeleteTenant unregisters a tenant database; the other half of a churn
// cycle. Returns the HTTP status (204 gone, 404 never there).
func DeleteTenant(ctx context.Context, client *http.Client, baseURL, name string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, baseURL+"/v1/databases/"+name, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// registerTenants registers the synthetic tenants (tolerating 409 from a
// previous run against the same server).
func (r *runner) registerTenants(ctx context.Context) error {
	for i := 0; i < r.cfg.Tenants; i++ {
		name := fmt.Sprintf("loadgen-%d", i)
		status, err := RegisterTenant(ctx, r.cfg.Client, r.target(), name)
		if err != nil {
			return fmt.Errorf("loadgen: registering tenant %s: %v", name, err)
		}
		if status != http.StatusCreated && status != http.StatusConflict {
			return fmt.Errorf("loadgen: registering tenant %s: HTTP %d (is the catalog enabled?)", name, status)
		}
		r.tenants = append(r.tenants, name)
	}
	return nil
}

// report assembles per-op rows plus the "all" aggregate.
func (r *runner) report(elapsed time.Duration) *Report {
	rep := &Report{
		Header:          benchfmt.NewHeader(),
		Mode:            "closed",
		DurationSeconds: elapsed.Seconds(),
		Workers:         r.cfg.Workers,
		Tenants:         r.cfg.Tenants,
		Seed:            r.cfg.Seed,
	}
	if r.cfg.Rate > 0 {
		rep.Mode = "open"
		rep.RateRPS = r.cfg.Rate
		rep.RateEndRPS = r.cfg.RateEnd
	}
	var (
		agg      metrics.HistogramSnapshot
		aggRow   = OpResult{Name: "all"}
		haveBase bool
	)
	for _, name := range r.order {
		st := r.stats[name]
		snap := st.hist.Snapshot()
		row := opRow(st, snap, elapsed)
		rep.Results = append(rep.Results, row)
		aggRow.Requests += row.Requests
		aggRow.Errors += row.Errors
		aggRow.Non2xx += row.Non2xx
		aggRow.Status429 += row.Status429
		aggRow.Dropped += row.Dropped
		if !haveBase {
			agg = snap
			agg.Counts = append([]int64(nil), snap.Counts...)
			haveBase = true
			continue
		}
		for i := range agg.Counts {
			agg.Counts[i] += snap.Counts[i]
		}
		agg.Count += snap.Count
		agg.Sum += snap.Sum
		if snap.Max > agg.Max {
			agg.Max = snap.Max
		}
	}
	aggRow.ThroughputRPS = rps(aggRow.Requests, elapsed)
	aggRow.ErrorRate = errorRate(aggRow)
	aggRow.LatencyMs = latencyMs(agg)
	rep.Results = append(rep.Results, aggRow)
	return rep
}

func opRow(st *opStats, snap metrics.HistogramSnapshot, elapsed time.Duration) OpResult {
	row := OpResult{
		Name:      st.name,
		Requests:  st.requests.Load(),
		Errors:    st.errors.Load(),
		Non2xx:    st.non2xx.Load(),
		Status429: st.status429.Load(),
		Dropped:   st.dropped.Load(),
	}
	row.ThroughputRPS = rps(row.Requests, elapsed)
	row.ErrorRate = errorRate(row)
	row.LatencyMs = latencyMs(snap)
	row.SlowTraces = st.slow.snapshot()
	return row
}

func rps(n int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

// errorRate is the -max-error-rate gate input: transport errors, non-2xx
// responses AND open-loop drops, over the offered load (sent + dropped).
// A dropped dispatch never reaches the latency histogram — it was never
// sent — but the generator shedding load is not a healthy system, so drops
// must not make the error rate look better than the run was.
func errorRate(row OpResult) float64 {
	offered := row.Requests + row.Dropped
	if offered == 0 {
		return 0
	}
	return float64(row.Errors+row.Non2xx+row.Dropped) / float64(offered)
}

func latencyMs(s metrics.HistogramSnapshot) LatencyMs {
	return LatencyMs{
		P50:  s.Quantile(0.50) * 1000,
		P95:  s.Quantile(0.95) * 1000,
		P99:  s.Quantile(0.99) * 1000,
		Mean: s.Mean() * 1000,
		Max:  s.Max * 1000,
	}
}

// WaitReady polls baseURL/healthz until it answers 200 or ctx expires — the
// CI smoke boots the server in the background and must not race its warmup.
func WaitReady(ctx context.Context, client *http.Client, baseURL string) error {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	baseURL = strings.TrimRight(baseURL, "/")
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("loadgen: server not ready: %w", ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// CheckMetrics scrapes baseURL/v1/metrics, verifies the exposition parses,
// and verifies the server-side http_requests_total sum accounts for at least
// minRequests — the end-to-end proof that the middleware measured the load
// the generator offered.
func CheckMetrics(client *http.Client, baseURL string, minRequests int64) error {
	return CheckMetricsAll(client, strings.Split(baseURL, ","), minRequests)
}

// CheckMetricsAll is the multi-target form of CheckMetrics: with requests
// fanned round-robin across several fronts, each front counted only its
// share, so the accounting proof sums http_requests_total over all of them.
func CheckMetricsAll(client *http.Client, baseURLs []string, minRequests int64) error {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	var total int64
	for _, u := range baseURLs {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		resp, err := client.Get(u + "/v1/metrics")
		if err != nil {
			return fmt.Errorf("loadgen: scraping metrics: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: GET %s/v1/metrics: %d", u, resp.StatusCode)
		}
		if err != nil {
			return err
		}
		samples, err := metrics.ParseExposition(body)
		if err != nil {
			return fmt.Errorf("loadgen: %s/v1/metrics is not valid Prometheus text: %v", u, err)
		}
		total += int64(metrics.SumSamples(samples, "http_requests_total"))
	}
	if total < minRequests {
		return fmt.Errorf("loadgen: servers counted %d requests, expected at least %d", total, minRequests)
	}
	return nil
}
