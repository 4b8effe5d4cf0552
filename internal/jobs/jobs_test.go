package jobs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/spider"
)

// stubTranslator is a fast deterministic translator for lifecycle tests.
type stubTranslator struct {
	delay time.Duration
	// gate, when non-nil, blocks every Translate call until it is closed.
	gate chan struct{}
}

func (s *stubTranslator) Name() string { return "stub" }

func (s *stubTranslator) Translate(e *spider.Example) core.Translation {
	if s.gate != nil {
		<-s.gate
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return core.Translation{
		SQL:          fmt.Sprintf("SELECT %d", e.ID),
		InputTokens:  100 + e.ID%13,
		OutputTokens: 10 + e.ID%3,
		DemosUsed:    1 + e.ID%4,
	}
}

func stubExamples(n, base int) []*spider.Example {
	out := make([]*spider.Example, n)
	for i := range out {
		out[i] = &spider.Example{ID: base + i}
	}
	return out
}

func shutdownOrFail(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// waitState polls until the job reaches a terminal state.
func waitFinished(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.State.Finished() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Status{}
}

func TestJobLifecycle(t *testing.T) {
	tr := &stubTranslator{}
	m := NewManager(tr, Config{Runners: 2, Queue: 8, Workers: 3})
	defer shutdownOrFail(t, m)

	ex := stubExamples(10, 0)
	st, err := m.Submit(Request{Examples: ex, Label: "first", TaskIDs: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Total != 10 || st.ID == "" {
		t.Fatalf("bad initial snapshot: %+v", st)
	}
	if st.Results != nil {
		t.Error("unfinished snapshot should not expose results")
	}

	final := waitFinished(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s, want done: %+v", final.State, final)
	}
	if final.Completed != 10 || final.Stats.Completed != 10 {
		t.Errorf("completed %d stats %+v", final.Completed, final.Stats)
	}
	if final.Label != "first" || len(final.TaskIDs) != 10 {
		t.Errorf("label/task ids lost: %+v", final)
	}
	if final.Started.IsZero() || final.Finished.IsZero() || final.Created.IsZero() {
		t.Errorf("lifecycle timestamps missing: %+v", final)
	}

	// Results byte-identical to a sequential engine run.
	want, wantStats, err := core.NewEngine(tr, 1).TranslateBatch(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Results, want) {
		t.Errorf("job results differ from sequential engine run")
	}
	if !reflect.DeepEqual(final.Stats, wantStats) {
		t.Errorf("job stats %+v != sequential stats %+v", final.Stats, wantStats)
	}
	for i, d := range final.Done {
		if !d {
			t.Errorf("done flag %d unset on a done job", i)
		}
	}
}

// TestConcurrentJobsMatchSequential is the acceptance gate: N jobs running
// concurrently across runners each produce exactly the results of a
// sequential engine run over their own examples. Run with -race.
func TestConcurrentJobsMatchSequential(t *testing.T) {
	tr := &stubTranslator{delay: 100 * time.Microsecond}
	m := NewManager(tr, Config{Runners: 4, Queue: 32, Workers: 4})
	defer shutdownOrFail(t, m)

	const jobs = 12
	ids := make([]string, jobs)
	batches := make([][]*spider.Example, jobs)
	for i := 0; i < jobs; i++ {
		batches[i] = stubExamples(8+i, i*100)
		st, err := m.Submit(Request{Examples: batches[i]})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		final := waitFinished(t, m, id)
		if final.State != StateDone {
			t.Fatalf("job %d state %s", i, final.State)
		}
		want, _, _ := core.NewEngine(tr, 1).TranslateBatch(context.Background(), batches[i])
		if !reflect.DeepEqual(final.Results, want) {
			t.Errorf("job %d results differ from sequential run", i)
		}
	}
	c := m.Stats()
	if c.Completed != jobs || c.Submitted != jobs {
		t.Errorf("counters: %+v", c)
	}
}

// TestRealPipelineJob runs one job through the actual PURPLE pipeline and
// checks the async path reproduces the synchronous translations exactly.
func TestRealPipelineJob(t *testing.T) {
	c := spider.GenerateSmall(13, 0.04)
	cfg := core.DefaultConfig()
	cfg.Consistency = 5
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), cfg)
	ex := c.Dev.Examples
	if len(ex) > 12 {
		ex = ex[:12]
	}
	m := NewManager(p, Config{Runners: 2, Queue: 4, Workers: 4})
	defer shutdownOrFail(t, m)
	st, err := m.Submit(Request{Examples: ex})
	if err != nil {
		t.Fatal(err)
	}
	final := waitFinished(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s", final.State)
	}
	for i, e := range ex {
		if want := p.Translate(e); !reflect.DeepEqual(final.Results[i], want) {
			t.Errorf("result %d differs from synchronous pipeline", i)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(&stubTranslator{}, Config{})
	defer shutdownOrFail(t, m)
	if _, err := m.Submit(Request{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty submit: %v", err)
	}
	if _, err := m.Submit(Request{Examples: stubExamples(2, 0), TaskIDs: []int{1}}); err == nil {
		t.Error("mismatched task ids accepted")
	}
}

func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	tr := &stubTranslator{gate: gate}
	m := NewManager(tr, Config{Runners: 1, Queue: 2, Workers: 1})

	// First job occupies the single runner (blocked on the gate); the next
	// two fill the queue; the fourth must be rejected.
	first, err := m.Submit(Request{Examples: stubExamples(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{first.ID}
	// Wait for the runner to pick up the first job so the queue is empty
	// before filling its two slots.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := m.Get(first.ID); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 3; i++ {
		st, err := m.Submit(Request{Examples: stubExamples(1, i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := m.Submit(Request{Examples: stubExamples(1, 99)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if c := m.Stats(); c.Rejected != 1 || c.QueueDepth != 2 || c.Running != 1 {
		t.Errorf("counters: %+v", c)
	}
	if c := m.Stats(); c.QueuePeak != 2 {
		t.Errorf("QueuePeak = %d, want 2 (full queue)", c.QueuePeak)
	}
	close(gate)
	for _, id := range ids {
		if st := waitFinished(t, m, id); st.State != StateDone {
			t.Errorf("job %s: %s", id, st.State)
		}
	}
	// With the backlog drained, admission works again — and the high-water
	// mark remembers the earlier saturation.
	if _, err := m.Submit(Request{Examples: stubExamples(1, 100)}); err != nil {
		t.Errorf("submit after drain: %v", err)
	}
	if c := m.Stats(); c.QueuePeak != 2 {
		t.Errorf("QueuePeak after drain = %d, want the sticky high-water 2", c.QueuePeak)
	}
	shutdownOrFail(t, m)
}

func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(&stubTranslator{gate: gate}, Config{Runners: 1, Queue: 4})
	blocker, err := m.Submit(Request{Examples: stubExamples(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Request{Examples: stubExamples(5, 10)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled || st.Completed != 0 {
		t.Fatalf("cancelled queued job: %+v", st)
	}
	close(gate)
	if st := waitFinished(t, m, blocker.ID); st.State != StateDone {
		t.Errorf("blocker: %s", st.State)
	}
	// The cancelled job must never have run.
	if st, _ := m.Get(queued.ID); st.State != StateCancelled || st.Completed != 0 {
		t.Errorf("queued job ran after cancel: %+v", st)
	}
	if c := m.Stats(); c.Cancelled != 1 {
		t.Errorf("cancelled counter: %+v", c)
	}
	shutdownOrFail(t, m)
}

// TestCancelRunningJobKeepsPartialResults cancels mid-run and checks the
// checkpoint: some but not all examples completed, stats covering exactly
// the completed slots, and done-flags consistent with results.
func TestCancelRunningJobKeepsPartialResults(t *testing.T) {
	tr := &stubTranslator{delay: 3 * time.Millisecond}
	m := NewManager(tr, Config{Runners: 1, Queue: 2, Workers: 1})
	defer shutdownOrFail(t, m)

	st, err := m.Submit(Request{Examples: stubExamples(500, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a few examples have completed, then cancel.
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, _ := m.Get(st.ID)
		if cur.Completed >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitFinished(t, m, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	if final.Completed < 3 || final.Completed >= final.Total {
		t.Fatalf("partial completion out of range: %d of %d", final.Completed, final.Total)
	}
	if final.Stats.Completed != final.Completed {
		t.Errorf("stats.Completed %d != Completed %d", final.Stats.Completed, final.Completed)
	}
	nDone := 0
	for i, d := range final.Done {
		if d {
			nDone++
			if final.Results[i].SQL == "" {
				t.Errorf("done slot %d has empty result", i)
			}
		} else if final.Results[i].SQL != "" {
			t.Errorf("undone slot %d has a result", i)
		}
	}
	if nDone != final.Completed {
		t.Errorf("done flags %d != completed %d", nDone, final.Completed)
	}
}

func TestGetUnknownJob(t *testing.T) {
	m := NewManager(&stubTranslator{}, Config{})
	defer shutdownOrFail(t, m)
	if _, err := m.Get("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: %v", err)
	}
}

func TestListOrdering(t *testing.T) {
	m := NewManager(&stubTranslator{}, Config{Runners: 2, Queue: 16})
	defer shutdownOrFail(t, m)
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := m.Submit(Request{Examples: stubExamples(2, i*10)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ls := m.List()
	if len(ls) != 5 {
		t.Fatalf("list length %d", len(ls))
	}
	for i, st := range ls {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
	}
}

func TestTTLGarbageCollection(t *testing.T) {
	m := NewManager(&stubTranslator{}, Config{TTL: time.Hour})
	defer shutdownOrFail(t, m)
	st, err := m.Submit(Request{Examples: stubExamples(2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, m, st.ID)
	if n := m.GC(time.Now()); n != 0 {
		t.Errorf("fresh job collected: %d", n)
	}
	if n := m.GC(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Errorf("stale job not collected: %d", n)
	}
	if _, err := m.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("collected job still queryable: %v", err)
	}
}

func TestGCSkipsUnfinishedJobs(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(&stubTranslator{gate: gate}, Config{Runners: 1, Queue: 4, TTL: time.Nanosecond})
	st, err := m.Submit(Request{Examples: stubExamples(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.GC(time.Now().Add(time.Hour)); n != 0 {
		t.Errorf("unfinished job collected: %d", n)
	}
	close(gate)
	waitFinished(t, m, st.ID)
	shutdownOrFail(t, m)
}

// TestShutdownDrains proves the graceful-drain contract: admission stops,
// queued jobs are cancelled, running jobs finish, and completed results
// survive.
func TestShutdownDrains(t *testing.T) {
	tr := &stubTranslator{delay: time.Millisecond}
	m := NewManager(tr, Config{Runners: 1, Queue: 8, Workers: 1})
	running, err := m.Submit(Request{Examples: stubExamples(20, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Give the runner a moment to pick it up, then queue one more.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := m.Get(running.ID); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(Request{Examples: stubExamples(5, 100)})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := m.Submit(Request{Examples: stubExamples(1, 0)}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: %v", err)
	}
	ran, _ := m.Get(running.ID)
	if ran.State != StateDone || ran.Completed != 20 {
		t.Errorf("running job not drained to completion: %+v", ran)
	}
	q, _ := m.Get(queued.ID)
	if q.State != StateCancelled || q.Completed != 0 {
		t.Errorf("queued job not cancelled at shutdown: %+v", q)
	}
	// Idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestShutdownDeadlineCancelsRunning forces the drain deadline and checks
// the running job is cancelled with its partial results checkpointed.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	tr := &stubTranslator{delay: 5 * time.Millisecond}
	m := NewManager(tr, Config{Runners: 1, Queue: 2, Workers: 1})
	st, err := m.Submit(Request{Examples: stubExamples(2000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cur, _ := m.Get(st.ID); cur.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	final, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Errorf("state %s, want cancelled", final.State)
	}
	if final.Completed == 0 || final.Completed >= final.Total {
		t.Errorf("expected partial completion, got %d of %d", final.Completed, final.Total)
	}
}

// TestSubmitConcurrent hammers admission from many goroutines; with -race
// this doubles as the admission-path race test.
func TestSubmitConcurrent(t *testing.T) {
	m := NewManager(&stubTranslator{}, Config{Runners: 4, Queue: 1024})
	defer shutdownOrFail(t, m)
	var wg sync.WaitGroup
	const n = 50
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Submit(Request{Examples: stubExamples(3, i*10)})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" {
			continue
		}
		if seen[id] {
			t.Errorf("duplicate job id %s", id)
		}
		seen[id] = true
		if st := waitFinished(t, m, id); st.State != StateDone {
			t.Errorf("job %s: %s", id, st.State)
		}
	}
	if c := m.Stats(); c.Completed != n {
		t.Errorf("completed %d of %d", c.Completed, n)
	}
}

// TestCancelQueuedFreesAdmissionSlot: cancelling a queued job must free its
// queue slot immediately — a queue full of cancelled jobs may not 429.
func TestCancelQueuedFreesAdmissionSlot(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(&stubTranslator{gate: gate}, Config{Runners: 1, Queue: 1})
	blocker, err := m.Submit(Request{Examples: stubExamples(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := m.Get(blocker.ID); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(Request{Examples: stubExamples(1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Request{Examples: stubExamples(1, 20)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full: %v", err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if c := m.Stats(); c.QueueDepth != 0 {
		t.Errorf("queue depth %d after cancelling the only queued job", c.QueueDepth)
	}
	// The freed slot admits a new job while the runner is still blocked.
	readmitted, err := m.Submit(Request{Examples: stubExamples(1, 30)})
	if err != nil {
		t.Fatalf("slot not freed by cancel: %v", err)
	}
	close(gate)
	if st := waitFinished(t, m, readmitted.ID); st.State != StateDone {
		t.Errorf("readmitted job: %s", st.State)
	}
	shutdownOrFail(t, m)
}

// TestRunJobs pins the generic-work path: a Run job rides the queue,
// lifecycle and counters without a translator.
func TestRunJobs(t *testing.T) {
	m := NewManager(nil, Config{Runners: 1, Queue: 4})
	defer shutdownOrFail(t, m)

	done := make(chan struct{})
	st, err := m.Submit(Request{Label: "build", Run: func(ctx context.Context) error {
		close(done)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run job never executed")
	}
	final := waitFinished(t, m, st.ID)
	if final.State != StateDone || final.Label != "build" || final.Total != 0 {
		t.Fatalf("run job: %+v", final)
	}

	// A failing Run finishes failed with its error recorded.
	st, err = m.Submit(Request{Run: func(ctx context.Context) error {
		return fmt.Errorf("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitFinished(t, m, st.ID); final.State != StateFailed || final.Err != "boom" {
		t.Fatalf("failing run job: %+v", final)
	}

	// A Run that observes cancellation finishes cancelled.
	gate := make(chan struct{})
	st, err = m.Submit(Request{Run: func(ctx context.Context) error {
		close(gate)
		<-ctx.Done()
		return ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if final := waitFinished(t, m, st.ID); final.State != StateCancelled {
		t.Fatalf("cancelled run job: %+v", final)
	}

	// Neither Examples nor Run is still an empty request.
	if _, err := m.Submit(Request{}); err != ErrEmpty {
		t.Fatalf("empty submit: %v, want ErrEmpty", err)
	}
}

// TestFinishedRunJobReleasesItsFunction: a finished job's record stays
// until the TTL collects it, but its Run function does not, so what the
// function holds is freed when the job ends.
func TestFinishedRunJobReleasesItsFunction(t *testing.T) {
	m := NewManager(nil, Config{Runners: 1, Queue: 4})
	defer shutdownOrFail(t, m)
	freed := make(chan struct{})
	submit := func() string {
		held := new([1 << 16]byte)
		runtime.SetFinalizer(held, func(*[1 << 16]byte) { close(freed) })
		st, err := m.Submit(Request{Label: "hold", Run: func(context.Context) error {
			held[0]++
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	id := submit()
	if final := waitFinished(t, m, id); final.State != StateDone {
		t.Fatalf("run job: %+v", final)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			if _, err := m.Get(id); err != nil {
				t.Errorf("the finished job's record is gone before its TTL: %v", err)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the finished job still holds what its Run function captured")
}

// TestTranslatorOverride pins the per-job translator: one manager serves
// jobs against different pipelines (the multi-tenant catalog's pattern).
func TestTranslatorOverride(t *testing.T) {
	m := NewManager(&stubTranslator{}, Config{Runners: 1, Queue: 4})
	defer shutdownOrFail(t, m)

	override := &offsetTranslator{offset: 1000}
	st, err := m.Submit(Request{Examples: stubExamples(3, 0), Translator: override})
	if err != nil {
		t.Fatal(err)
	}
	final := waitFinished(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("job: %+v", final)
	}
	for i, res := range final.Results {
		want := fmt.Sprintf("SELECT %d", 1000+i)
		if res.SQL != want {
			t.Errorf("result %d = %q, want %q (override not used)", i, res.SQL, want)
		}
	}
	if len(final.Examples) != 3 {
		t.Errorf("finished status echoes %d examples, want 3", len(final.Examples))
	}

	// Without the override the manager default still applies.
	st, err = m.Submit(Request{Examples: stubExamples(1, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitFinished(t, m, st.ID); final.Results[0].SQL != "SELECT 7" {
		t.Errorf("default translator bypassed: %+v", final.Results)
	}
}

type offsetTranslator struct{ offset int }

func (o *offsetTranslator) Name() string { return "offset" }
func (o *offsetTranslator) Translate(e *spider.Example) core.Translation {
	return core.Translation{SQL: fmt.Sprintf("SELECT %d", o.offset+e.ID)}
}

// TestOnEvictHook pins the GC side-channel: hooks observe exactly the IDs
// the TTL GC deletes, outside the manager lock.
func TestOnEvictHook(t *testing.T) {
	m := NewManager(&stubTranslator{}, Config{Runners: 1, Queue: 8, TTL: time.Hour})
	defer shutdownOrFail(t, m)

	var mu sync.Mutex
	var evicted []string
	m.OnEvict(func(ids []string) {
		mu.Lock()
		evicted = append(evicted, ids...)
		mu.Unlock()
	})
	// Hooks may themselves call back into the manager without deadlocking.
	m.OnEvict(func(ids []string) { m.Stats() })

	st, err := m.Submit(Request{Examples: stubExamples(2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, m, st.ID)

	if n := m.GC(time.Now()); n != 0 {
		t.Fatalf("premature GC removed %d", n)
	}
	mu.Lock()
	if len(evicted) != 0 {
		t.Fatalf("hook fired before eviction: %v", evicted)
	}
	mu.Unlock()

	if n := m.GC(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("GC removed %d jobs, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted[0] != st.ID {
		t.Fatalf("hook saw %v, want [%s]", evicted, st.ID)
	}
}
