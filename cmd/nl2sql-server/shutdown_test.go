package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// TestGracefulShutdown boots the full app in-process on a random port,
// gets a long job running, triggers the signal path (context cancellation —
// main wires SIGINT and SIGTERM to exactly this), and asserts the
// drain contract: run returns within the drain budget, the listener is
// closed, and the in-flight job checkpointed partial results instead of
// vanishing.
func TestGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full serving stack")
	}
	// Short enough that the 1000-task job cannot finish inside it: the drain
	// must cut the job and checkpoint partial results, not just wait it out.
	drain := time.Second
	a, err := newApp(appConfig{
		Addr:         "127.0.0.1:0",
		Scale:        0.03,
		Seed:         1,
		Workers:      1,
		CacheCap:     0, // no LLM cache: every translation pays full cost, keeping the job slow
		JobRunners:   1,
		JobQueue:     4,
		JobTTL:       time.Minute,
		DrainTimeout: drain,
		MaxTenants:   0, // catalog off: this test is about the jobs drain
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- a.run(ctx) }()
	<-a.started
	base := "http://" + a.addr()

	// A job big enough to still be running when the drain starts: the same
	// dev tasks repeated (task resolution permits duplicates), with a single
	// worker and no cache.
	ids := make([]int, 1000) // the service caps batches at 1024 tasks
	for i := range ids {
		ids[i] = i % 3
	}
	body, _ := json.Marshal(map[string]any{"task_ids": ids, "label": "drain-test"})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || created.ID == "" {
		t.Fatalf("job create: %d %+v", resp.StatusCode, created)
	}

	// Wait until the job has made real progress so "checkpointed partial
	// results" is distinguishable from "never ran".
	waitProgress(t, base, created.ID, 15*time.Second)

	// Deliver the shutdown signal.
	start := time.Now()
	cancel()
	var runErr error
	select {
	case runErr = <-runDone:
	case <-time.After(3*drain + 5*time.Second):
		t.Fatal("run did not return within the drain budget")
	}
	elapsed := time.Since(start)
	// Three sequential stages (HTTP, jobs, catalog) each own one budget;
	// with the catalog off the bound is two budgets plus slack.
	if elapsed > 2*drain+2*time.Second {
		t.Errorf("drain took %v, want <= %v", elapsed, 2*drain+2*time.Second)
	}

	// The listener must be closed: new connections are refused.
	if conn, err := net.DialTimeout("tcp", a.addr(), 500*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listener still accepting connections after shutdown")
	}

	// The in-flight job checkpointed: its terminal state retains completed
	// work. A cancelled job must hold partial results; a job that squeaked
	// through finishes done with everything. The listener is closed, so the
	// status is read from the service's handler in-process; its results
	// hold one item per completed translation.
	rec := httptest.NewRecorder()
	a.svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+created.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("job lookup after drain: status %d: %s", rec.Code, rec.Body)
	}
	var st struct {
		State     string            `json:"state"`
		Completed int               `json:"completed"`
		Results   []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" && st.State != "failed" && st.State != "cancelled" {
		t.Errorf("job state %q after drain, want terminal", st.State)
	}
	if st.Completed == 0 {
		t.Error("job checkpointed zero completed translations")
	}
	if len(st.Results) != st.Completed {
		t.Errorf("checkpoint mismatch: %d results vs %d completed", len(st.Results), st.Completed)
	}
	// A forced cancellation surfaces as a deadline error from run; a clean
	// drain returns nil. Both honor the contract — anything else is a bug.
	if runErr != nil && !isDeadline(runErr) {
		t.Errorf("run returned %v, want nil or deadline", runErr)
	}
}

func isDeadline(err error) bool {
	return err == context.DeadlineExceeded || err.Error() == context.DeadlineExceeded.Error()
}

func waitProgress(t *testing.T, base, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State     string `json:"state"`
			Completed int    `json:"completed"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Completed > 0 {
			return
		}
		if st.State != "queued" && st.State != "running" {
			t.Fatalf("job reached %q before making progress", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job made no progress in time")
}

// TestSignalsTrapped delivers a real SIGINT through the same signal list
// main wires into signal.NotifyContext, proving an interactive ^C drains the
// server (a regression guard: SIGINT used to be easy to lose when editing
// the signal set — if it is dropped from shutdownSignals, the NotifyContext
// below never fires and this test times out).
func TestSignalsTrapped(t *testing.T) {
	a, err := newApp(appConfig{
		Addr:         "127.0.0.1:0",
		Scale:        0.02,
		Workers:      1,
		DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals...)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	<-a.started
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGINT drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGINT did not drain the server — is it missing from shutdownSignals?")
	}
}
