// Package jobs is the asynchronous batch-translation subsystem: it wraps
// core.Engine behind a Manager that owns a bounded FIFO admission queue, a
// fixed pool of runner goroutines, per-job lifecycle state with live
// progress counters, cooperative cancellation, TTL-based garbage collection
// of finished jobs, and graceful drain on shutdown. It is the piece that
// lets a fleet of clients share one pipeline: callers submit a batch, get a
// job ID back immediately, and poll (or cancel) instead of holding a
// connection open for the whole run.
//
// Admission control is strict: when the queue is full, Submit fails fast
// with ErrQueueFull rather than blocking the caller — upstream layers map
// that to HTTP 429 so load sheds at the edge instead of piling up.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/spider"
	"repro/internal/trace"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. Transitions: Queued → Running → Done/Failed, and
// Queued/Running → Cancelled. Finished states (Done, Failed, Cancelled) are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Typed errors surfaced to admission and lookup callers.
var (
	// ErrQueueFull is returned by Submit when the admission queue is
	// saturated; the service layer maps it to HTTP 429.
	ErrQueueFull = errors.New("jobs: admission queue full")
	// ErrShuttingDown is returned by Submit after Shutdown has begun.
	ErrShuttingDown = errors.New("jobs: manager shutting down")
	// ErrNotFound is returned for an unknown (or garbage-collected) job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrEmpty is returned by Submit for a request with no examples.
	ErrEmpty = errors.New("jobs: empty request")
)

// Config parameterizes a Manager. The zero value is usable: every field
// falls back to the default noted on it.
type Config struct {
	// Runners is the number of goroutines executing jobs (default 2). Each
	// runner executes one job at a time, so Runners bounds concurrent jobs.
	Runners int
	// Queue is the admission queue capacity (default 16). A Submit beyond
	// Queue pending jobs fails with ErrQueueFull.
	Queue int
	// Workers is the per-job engine pool size (default 4) unless the
	// request overrides it.
	Workers int
	// TTL is how long finished jobs remain queryable before the janitor
	// deletes them (default 15m).
	TTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	return c
}

// Request is one batch submission.
type Request struct {
	// Examples are the tasks to translate, in result order.
	Examples []*spider.Example
	// Workers overrides the manager's per-job engine pool size when > 0.
	Workers int
	// Label is an optional client-supplied tag echoed in Status.
	Label string
	// TaskIDs is optional caller bookkeeping (e.g. benchmark task indices),
	// echoed in Status; when set its length must match Examples.
	TaskIDs []int
	// Translator, when non-nil, overrides the manager's translator for this
	// job — the multi-tenant catalog submits jobs against per-tenant
	// pipelines through one shared manager.
	Translator core.Translator
	// Run, when non-nil, replaces batch translation as the job body: the
	// runner invokes it with the job's context and the job finishes done,
	// cancelled (when the error is context.Canceled) or failed on its
	// return. Examples may be empty for Run jobs. This is how non-translation
	// work — e.g. the catalog's model builds — rides the manager's admission
	// queue, runner pool, TTL GC and drain.
	Run func(ctx context.Context) error
	// Trace optionally links the job to the submitting request's trace: the
	// runner records a queue-wait span (submission → first run) and a run
	// span, both parented under the submitter's span, even though they
	// finish long after the HTTP response went out. The zero Link is inert.
	Trace trace.Link
}

// Status is a point-in-time snapshot of a job, safe to retain.
type Status struct {
	ID    string
	State State
	Label string
	// TaskIDs echoes Request.TaskIDs (nil when the caller didn't set it).
	TaskIDs []int
	// Total is the number of examples in the job; Completed how many have
	// finished so far (== Total when State is done).
	Total     int
	Completed int
	// Stats aggregates accounting over the completed portion.
	Stats core.BatchStats
	// Results holds per-example translations. Slots not yet translated are
	// zero Translations; consult Done to know which are real. Populated
	// only once the job is finished.
	Results []core.Translation
	// Done flags which result slots completed (aligned with Results).
	Done []bool
	// Examples echoes the job's input tasks (aligned with Results) so
	// result renderers need no side table; populated once the job is
	// finished, like Results.
	Examples []*spider.Example
	// Err is the failure reason for StateFailed (empty otherwise).
	Err string
	// Workers is the engine pool size the job runs with.
	Workers int
	// Created, Started and Finished are lifecycle timestamps; Started and
	// Finished are zero until the corresponding transition.
	Created, Started, Finished time.Time
}

// job is the internal mutable record behind a Status.
type job struct {
	id      string
	seq     int
	label   string
	taskIDs []int
	ex      []*spider.Example
	workers int
	tr      core.Translator // per-job override; nil = manager default
	runFn   func(ctx context.Context) error
	link    trace.Link

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	completed int
	stats     core.BatchStats
	results   []core.Translation
	done      []bool
	err       string
	created   time.Time
	started   time.Time
	finished  time.Time
}

func (j *job) snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		State:     j.state,
		Label:     j.label,
		TaskIDs:   j.taskIDs,
		Total:     len(j.ex),
		Completed: j.completed,
		Stats:     j.stats,
		Err:       j.err,
		Workers:   j.workers,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.state.Finished() {
		st.Results = j.results
		st.Done = j.done
		st.Examples = j.ex
	}
	return st
}

// Counters aggregates manager-wide accounting for observability endpoints.
type Counters struct {
	// QueueDepth is the number of jobs admitted but not yet running;
	// QueueCap the admission limit; Running how many are executing now.
	QueueDepth int
	QueueCap   int
	Running    int
	// QueuePeak is the deepest the admission queue has ever been — the
	// high-water mark saturation tests read to prove back-pressure built
	// up even after the queue drained again.
	QueuePeak int
	// Lifetime totals since the manager started.
	Submitted int
	Rejected  int
	Completed int
	Failed    int
	Cancelled int
}

// Manager owns the queue, the runner pool and the job table.
type Manager struct {
	tr  core.Translator
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // signals pending-queue activity to runners
	pending  []*job     // FIFO admission queue (bounded by cfg.Queue)
	jobs     map[string]*job
	seq      int
	closed   bool
	running  int
	counters Counters

	wg      sync.WaitGroup // runner goroutines
	stopGC  chan struct{}
	gcDone  chan struct{}
	closeGC sync.Once

	hookMu     sync.Mutex
	evictHooks []func(ids []string)
}

// OnEvict registers a hook called with the IDs of jobs the TTL garbage
// collector deletes. Hooks run outside the manager lock, after the jobs are
// gone from the table; callers use them to drop per-job side state (the
// service's memoized result renderings being the motivating case — without
// the hook those outlive the jobs they belong to).
func (m *Manager) OnEvict(fn func(ids []string)) {
	m.hookMu.Lock()
	m.evictHooks = append(m.evictHooks, fn)
	m.hookMu.Unlock()
}

// NewManager builds a manager around any Translator and starts its runners
// and the garbage-collection janitor. Call Shutdown to stop it.
func NewManager(tr core.Translator, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		tr:     tr,
		cfg:    cfg,
		jobs:   map[string]*job{},
		stopGC: make(chan struct{}),
		gcDone: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	go m.janitor()
	return m
}

// Submit admits a job, returning its initial snapshot. It never blocks: a
// full queue fails with ErrQueueFull, a draining manager with
// ErrShuttingDown.
func (m *Manager) Submit(req Request) (Status, error) {
	if len(req.Examples) == 0 && req.Run == nil {
		return Status{}, ErrEmpty
	}
	if req.TaskIDs != nil && len(req.TaskIDs) != len(req.Examples) {
		return Status{}, fmt.Errorf("jobs: %d task ids for %d examples", len(req.TaskIDs), len(req.Examples))
	}
	workers := req.Workers
	if workers <= 0 {
		workers = m.cfg.Workers
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.counters.Rejected++
		return Status{}, ErrShuttingDown
	}
	if len(m.pending) >= m.cfg.Queue {
		m.counters.Rejected++
		return Status{}, ErrQueueFull
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.seq++
	j := &job{
		id:      fmt.Sprintf("job-%06d", m.seq),
		seq:     m.seq,
		label:   req.Label,
		taskIDs: req.TaskIDs,
		ex:      req.Examples,
		workers: workers,
		tr:      req.Translator,
		runFn:   req.Run,
		link:    req.Trace,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: time.Now(),
	}
	m.pending = append(m.pending, j)
	m.jobs[j.id] = j
	m.counters.Submitted++
	if len(m.pending) > m.counters.QueuePeak {
		m.counters.QueuePeak = len(m.pending)
	}
	m.cond.Signal()
	return j.snapshot(), nil
}

// Get returns a snapshot of the job, or ErrNotFound.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// List snapshots every known job in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return js[a].seq < js[b].seq })
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// Cancel requests cooperative cancellation. A queued job is finalized
// immediately and its admission slot freed; a running job's context is
// cancelled, its workers stop picking up further examples, and the runner
// checkpoints whatever completed. A cancel that arrives after every example
// has already been translated is a no-op: the job finishes as done with
// full results. The returned snapshot reflects the state after the request.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	m.cancelJob(j)
	return j.snapshot(), nil
}

func (m *Manager) cancelJob(j *job) {
	j.cancel()
	m.mu.Lock()
	for i, q := range m.pending {
		if q == j { // still queued: free the admission slot
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	j.mu.Lock()
	wasQueued := j.state == StateQueued
	if wasQueued {
		j.state = StateCancelled
		j.finished = time.Now()
	}
	j.mu.Unlock()
	if wasQueued {
		m.mu.Lock()
		m.counters.Cancelled++
		m.mu.Unlock()
	}
}

// Stats reports manager-wide counters.
func (m *Manager) Stats() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters
	c.QueueDepth = len(m.pending)
	c.QueueCap = m.cfg.Queue
	c.Running = m.running
	return c
}

// runner executes pending jobs until shutdown empties the queue.
func (m *Manager) runner() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		m.run(j)
		m.mu.Lock()
	}
}

func (m *Manager) run(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.done = make([]bool, len(j.ex))
	created, started := j.created, j.started
	j.mu.Unlock()

	m.mu.Lock()
	m.running++
	m.mu.Unlock()

	// Linked jobs record their lifecycle into the submitter's trace: the
	// queue-wait span covers admission → first run, the run span the actual
	// execution. Both land after the HTTP root finished; a slow or failed
	// run still promotes the trace into the retained ring.
	runCtx := j.ctx
	var runSpan *trace.Span
	if j.link.Active() {
		qs := j.link.Span("jobs.queue_wait", created)
		qs.SetAttrs(trace.Str("job_id", j.id))
		qs.FinishAt(started)
		runSpan = j.link.Span("jobs.run", started)
		runSpan.SetAttrs(trace.Str("job_id", j.id), trace.Int("examples", int64(len(j.ex))))
		runCtx = trace.ContextWithSpan(runCtx, runSpan)
	}

	var (
		results []core.Translation
		stats   core.BatchStats
		err     error
	)
	// Label the runner for CPU profiles while this job executes.
	pprof.Do(runCtx, pprof.Labels("job", j.id), func(ctx context.Context) {
		if j.runFn != nil {
			err = j.runFn(ctx)
		} else {
			tr := m.tr
			if j.tr != nil {
				tr = j.tr
			}
			eng := core.NewEngine(tr, j.workers)
			results, stats, err = eng.TranslateBatchProgress(ctx, j.ex,
				func(i int, _ core.Translation, sofar core.BatchStats) {
					j.mu.Lock()
					j.completed = sofar.Completed
					j.stats = sofar
					j.done[i] = true
					j.mu.Unlock()
				})
		}
	})

	j.mu.Lock()
	j.results = results
	j.stats = stats
	j.completed = stats.Completed
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled):
		// Cooperative cancellation checkpoints whatever completed.
		j.state = StateCancelled
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	final := j.state
	finished := j.finished
	j.mu.Unlock()

	if runSpan != nil {
		runSpan.SetAttrs(trace.Str("state", string(final)), trace.Int("completed", int64(stats.Completed)))
		runSpan.SetError(final == StateFailed)
		runSpan.FinishAt(finished)
	}

	m.mu.Lock()
	m.running--
	switch final {
	case StateDone:
		m.counters.Completed++
	case StateCancelled:
		m.counters.Cancelled++
	default:
		m.counters.Failed++
	}
	m.mu.Unlock()
}

// janitor periodically deletes finished jobs older than the TTL.
func (m *Manager) janitor() {
	defer close(m.gcDone)
	period := m.cfg.TTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.stopGC:
			return
		case now := <-t.C:
			m.GC(now)
		}
	}
}

// GC deletes finished jobs whose Finished time is older than now-TTL and
// returns how many it removed. The janitor calls it on a timer; tests may
// call it directly with a synthetic clock.
func (m *Manager) GC(now time.Time) int {
	cutoff := now.Add(-m.cfg.TTL)
	m.mu.Lock()
	var evicted []string
	for id, j := range m.jobs {
		j.mu.Lock()
		dead := j.state.Finished() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if dead {
			delete(m.jobs, id)
			evicted = append(evicted, id)
		}
	}
	m.mu.Unlock()
	if len(evicted) > 0 {
		m.hookMu.Lock()
		hooks := append([]func(ids []string){}, m.evictHooks...)
		m.hookMu.Unlock()
		for _, fn := range hooks {
			fn(evicted)
		}
	}
	return len(evicted)
}

// Shutdown drains the manager: admission stops immediately (Submit fails
// with ErrShuttingDown), still-queued jobs are cancelled without running,
// and running jobs are given until ctx expires to finish — after which
// their contexts are cancelled and they checkpoint partial results. Either
// way every runner has exited and all completed results remain queryable
// when Shutdown returns. The error is ctx.Err() when the deadline forced
// cancellation, nil on a clean drain. Shutdown is idempotent.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.cond.Broadcast()
		m.closeGC.Do(func() { close(m.stopGC) })
	}
	queued := append([]*job(nil), m.pending...)
	m.mu.Unlock()
	for _, j := range queued {
		m.cancelJob(j)
	}

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		m.mu.Lock()
		running := make([]*job, 0)
		for _, j := range m.jobs {
			j.mu.Lock()
			if j.state == StateRunning {
				running = append(running, j)
			}
			j.mu.Unlock()
		}
		m.mu.Unlock()
		for _, j := range running {
			j.cancel()
		}
		<-drained
	}
	<-m.gcDone
	return err
}
