package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/spider"
)

// jobsTestServer builds a server with the async job subsystem enabled. The
// returned Server is also exposed so tests can drive Shutdown directly.
func jobsTestServer(t *testing.T, cfg jobs.Config, opts ...Option) (*httptest.Server, *Server, *spider.Corpus) {
	return jobsTestServerDelay(t, cfg, 0, opts...)
}

// slowTranslator delays each translation — the simulated pipeline is too
// fast to observe a job mid-run over HTTP otherwise. Results are the
// wrapped pipeline's own, so rendered responses stay correct.
type slowTranslator struct {
	p     *core.Pipeline
	delay time.Duration
}

func (s slowTranslator) Name() string { return s.p.Name() }
func (s slowTranslator) Translate(e *spider.Example) core.Translation {
	time.Sleep(s.delay)
	return s.p.Translate(e)
}

// jobsTestServerDelay is jobsTestServer with an artificial per-translation
// delay on the job path (delay 0 uses the pipeline directly).
func jobsTestServerDelay(t *testing.T, cfg jobs.Config, delay time.Duration, opts ...Option) (*httptest.Server, *Server, *spider.Corpus) {
	t.Helper()
	c := spider.GenerateSmall(13, 0.05)
	pcfg := core.DefaultConfig()
	pcfg.Consistency = 5
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), pcfg)
	if delay > 0 {
		opts = append([]Option{WithJobsManager(jobs.NewManager(slowTranslator{p, delay}, cfg))}, opts...)
	} else {
		opts = append([]Option{WithJobs(cfg)}, opts...)
	}
	s := New(p, c, opts...)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return srv, s, c
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		data, _ := json.Marshal(body)
		reader = bytes.NewReader(data)
	} else {
		reader = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, url, err)
		}
	}
	return resp
}

func pollJob(t *testing.T, base, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatusResponse
		resp := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		if st.State == string(jobs.StateDone) || st.State == string(jobs.StateFailed) ||
			st.State == string(jobs.StateCancelled) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatusResponse{}
}

// TestJobEndpointLifecycle is the async happy path: create → 202 + ID →
// poll → done with results identical to the synchronous /v1/batch answer.
func TestJobEndpointLifecycle(t *testing.T) {
	srv, _, c := jobsTestServer(t, jobs.Config{Runners: 2, Queue: 8})
	ids := []int{0, 1, 2, 3, 4}

	var created JobStatusResponse
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		JobCreateRequest{TaskIDs: ids, Workers: 2, Label: "lifecycle"}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if created.ID == "" || created.State != string(jobs.StateQueued) || created.Total != len(ids) {
		t.Fatalf("bad create response: %+v", created)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+created.ID {
		t.Errorf("Location header %q", loc)
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("missing json content type on 202")
	}

	final := pollJob(t, srv.URL, created.ID)
	if final.State != string(jobs.StateDone) {
		t.Fatalf("final state %s: %+v", final.State, final)
	}
	if final.Completed != len(ids) || len(final.Results) != len(ids) {
		t.Fatalf("incomplete results: %+v", final)
	}
	if final.Label != "lifecycle" || final.Started == "" || final.Finished == "" {
		t.Errorf("metadata missing: %+v", final)
	}
	if final.InputTokens == 0 || final.DemosUsed == 0 {
		t.Errorf("aggregate accounting missing: %+v", final)
	}

	// The async answer must agree with the synchronous batch endpoint.
	var sync BatchResponse
	postJSON(t, srv.URL+"/v1/batch", BatchRequest{TaskIDs: ids}, &sync)
	for i := range ids {
		if final.Results[i].SQL != sync.Results[i].SQL || final.Results[i].TaskID != sync.Results[i].TaskID {
			t.Errorf("job result %d differs from /v1/batch: %+v vs %+v", i, final.Results[i], sync.Results[i])
		}
		if final.Results[i].Gold != c.Dev.Examples[ids[i]].GoldSQL {
			t.Errorf("gold mismatch at %d", i)
		}
	}

	// Listing shows the job; results stay out of the listing.
	var ls JobListResponse
	doJSON(t, http.MethodGet, srv.URL+"/v1/jobs", nil, &ls)
	if len(ls.Jobs) != 1 || ls.Jobs[0].ID != created.ID || ls.Jobs[0].Results != nil {
		t.Errorf("bad listing: %+v", ls)
	}

	// /v1/metrics carries the queue counters.
	samples, _ := scrape(t, srv.URL)
	if samples["jobs_submitted_total"] != 1 || samples["jobs_completed_total"] != 1 {
		t.Errorf("jobs counters: submitted=%g completed=%g, want 1 and 1",
			samples["jobs_submitted_total"], samples["jobs_completed_total"])
	}
}

// TestJobEndpointCancelMidRun cancels a long job partway and checks the 200
// response carries partial progress, then the final state is cancelled with
// partial stats and a completed-only results list.
func TestJobEndpointCancelMidRun(t *testing.T) {
	srv, _, c := jobsTestServerDelay(t, jobs.Config{Runners: 1, Queue: 4, Workers: 1}, 5*time.Millisecond)
	// A long job: cycle the dev set to 400 tasks on a single worker.
	ids := make([]int, 400)
	for i := range ids {
		ids[i] = i % len(c.Dev.Examples)
	}
	var created JobStatusResponse
	if resp := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: ids}, &created); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatusResponse
		doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+created.ID, nil, &st)
		if st.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+created.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := pollJob(t, srv.URL, created.ID)
	if final.State != string(jobs.StateCancelled) {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	if final.Completed == 0 || final.Completed >= final.Total {
		t.Fatalf("expected partial completion, got %d of %d", final.Completed, final.Total)
	}
	if len(final.Results) != final.Completed {
		t.Errorf("results %d != completed %d", len(final.Results), final.Completed)
	}
	if final.InputTokens == 0 {
		t.Errorf("partial stats missing: %+v", final)
	}
}

// TestJobEndpointQueueSaturation fills the single-runner queue and checks
// the next submission is shed with 429.
func TestJobEndpointQueueSaturation(t *testing.T) {
	srv, _, c := jobsTestServerDelay(t, jobs.Config{Runners: 1, Queue: 1, Workers: 1}, 5*time.Millisecond)
	long := make([]int, 300)
	for i := range long {
		long[i] = i % len(c.Dev.Examples)
	}
	var running JobStatusResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: long}, &running)
	// Wait until the runner has dequeued it so the queue is truly empty.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatusResponse
		doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+running.ID, nil, &st)
		if st.State == string(jobs.StateRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: []int{0}}, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue slot rejected: %d", resp.StatusCode)
	}
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: []int{1}}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 at saturation, got %d", resp.StatusCode)
	}
	if samples, _ := scrape(t, srv.URL); samples["jobs_rejected_total"] == 0 {
		t.Error("rejection not counted on jobs_rejected_total")
	}
	// Unblock the runner quickly for cleanup.
	doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+running.ID, nil, nil)
}

// TestJobEndpointErrors covers the job-route error surface.
func TestJobEndpointErrors(t *testing.T) {
	srv, _, _ := jobsTestServer(t, jobs.Config{Runners: 1, Queue: 4})

	// Malformed JSON body.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed json: %d", resp.StatusCode)
	}
	// Empty and out-of-range task lists.
	if r := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ids: %d", r.StatusCode)
	}
	if r := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: []int{999999}}, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("out of range: %d", r.StatusCode)
	}
	// Oversized batch.
	if r := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: outOfRangeIDs(maxBatch + 1)}, nil); r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d", r.StatusCode)
	}
	// Unknown job ID on get and cancel.
	if r := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/job-999999", nil, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown get: %d", r.StatusCode)
	}
	if r := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/job-999999", nil, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cancel: %d", r.StatusCode)
	}
	// Method not allowed on the collection and item routes.
	if r := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs", nil, nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE collection: %d", r.StatusCode)
	}
	if r := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs/job-000001", nil, nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST item: %d", r.StatusCode)
	}
}

// TestJobEndpointsDisabled: without WithJobs the routes don't exist and no
// jobs_* series is exported.
func TestJobEndpointsDisabled(t *testing.T) {
	srv, _ := testServer(t)
	if r := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs", nil, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("jobs listing on disabled server: %d", r.StatusCode)
	}
	samples, _ := scrape(t, srv.URL)
	for key := range samples {
		if strings.HasPrefix(key, "jobs_") {
			t.Errorf("jobs-less server exports %s", key)
		}
	}
}

// TestServerShutdownDrains drives the graceful-drain path through the
// Server facade: completed jobs stay queryable, admission turns into 503.
func TestServerShutdownDrains(t *testing.T) {
	srv, s, _ := jobsTestServer(t, jobs.Config{Runners: 2, Queue: 8})
	var created JobStatusResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: []int{0, 1, 2}}, &created)
	final := pollJob(t, srv.URL, created.ID)
	if final.State != string(jobs.StateDone) {
		t.Fatalf("state %s", final.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Completed results survive the drain.
	var st JobStatusResponse
	if r := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs/"+created.ID, nil, &st); r.StatusCode != http.StatusOK {
		t.Fatalf("post-shutdown poll: %d", r.StatusCode)
	}
	if st.State != string(jobs.StateDone) || len(st.Results) != 3 {
		t.Errorf("results lost at shutdown: %+v", st)
	}
	// Admission now sheds with 503.
	if r := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: []int{0}}, nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d", r.StatusCode)
	}
}
