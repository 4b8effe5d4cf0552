package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/trace"
)

// JobCreateRequest submits a batch of dev tasks (task_ids) or, for a
// registered tenant database, free-form questions for asynchronous
// translation. Unlike /v1/batch, the call returns immediately with a job ID;
// poll GET /v1/jobs/{id} for progress and results.
type JobCreateRequest struct {
	TaskIDs []int `json:"task_ids,omitempty"`
	// Database plus Questions selects the tenant-scoped form: each question
	// is resolved against the tenant's demonstration pool and translated by
	// the tenant's pipeline.
	Database  string   `json:"database,omitempty"`
	Questions []string `json:"questions,omitempty"`
	// Workers overrides the job subsystem's per-job engine pool when > 0.
	Workers int `json:"workers,omitempty"`
	// Label is an optional client tag echoed back in status responses.
	Label string `json:"label,omitempty"`
}

// JobStatusResponse reports a job's lifecycle state, live progress and — once
// the job is finished — its per-task results. A cancelled job reports the
// results of the tasks that completed before cancellation.
type JobStatusResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Label     string `json:"label,omitempty"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	// Aggregate accounting over the completed portion so far.
	InputTokens  int    `json:"input_tokens"`
	OutputTokens int    `json:"output_tokens"`
	DemosUsed    int    `json:"demos_used"`
	Workers      int    `json:"workers"`
	Error        string `json:"error,omitempty"`
	Created      string `json:"created,omitempty"`
	Started      string `json:"started,omitempty"`
	Finished     string `json:"finished,omitempty"`
	// Results holds one item per completed task (request order), present
	// only once the job has finished.
	Results []BatchItem `json:"results,omitempty"`
}

// JobListResponse wraps the job listing. Queue and lifecycle counters are
// on /v1/metrics as jobs_*.
type JobListResponse struct {
	Jobs []JobStatusResponse `json:"jobs"`
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

// jobStatusResponse renders a jobs.Status; withResults controls whether the
// (potentially large) per-task results are attached.
func (s *Server) jobStatusResponse(st jobs.Status, withResults bool) JobStatusResponse {
	out := JobStatusResponse{
		ID:           st.ID,
		State:        string(st.State),
		Label:        st.Label,
		Total:        st.Total,
		Completed:    st.Completed,
		InputTokens:  st.Stats.InputTokens,
		OutputTokens: st.Stats.OutputTokens,
		DemosUsed:    st.Stats.DemosUsed,
		Workers:      st.Workers,
		Error:        st.Err,
		Created:      rfc3339(st.Created),
		Started:      rfc3339(st.Started),
		Finished:     rfc3339(st.Finished),
	}
	if !withResults || st.Results == nil {
		return out
	}
	out.Results = s.renderedResults(st)
	return out
}

// renderedResults memoizes a finished job's BatchItem list: a finished
// job's results are immutable, and ExactMatch/ExecutionMatch re-execute
// SQL, so rendering must happen once per job rather than once per poll.
// resMu is held for the whole render, single-flighting concurrent first
// polls of the same job (renders are rare — once per finished job — so
// serializing them is cheaper than racing duplicates).
func (s *Server) renderedResults(st jobs.Status) []BatchItem {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if items, ok := s.resCache[st.ID]; ok {
		return items
	}

	// The job status echoes its own examples, so rendering needs no side
	// table — benchmark and tenant jobs share one path, and the GC evict
	// hook (wired in New) keeps this cache aligned with the job table.
	items := batchItems(st.TaskIDs, st.Examples, st.Results, st.Done)
	// Memoize only while the job is still in the manager's table. The evict
	// hook also takes resMu, so orderings interleave safely: if the GC ran
	// after this render began, either the Get below already misses, or the
	// hook deletes the entry right after we store it — never an orphan that
	// outlives its job.
	if _, err := s.jobs.Get(st.ID); err == nil {
		s.resCache[st.ID] = items
	}
	return items
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobCreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	in, ok := s.resolveBatch(w, r, req.TaskIDs, req.Database, req.Questions)
	if !ok {
		return
	}
	// A tenant job runs on the tenant's pipeline; a dev-task job leaves
	// Translator nil for the manager's own. Trace links the job to this
	// request's trace (inert when unsampled): the runner's queue-wait and
	// run spans land under this submission's span.
	st, err := s.jobs.Submit(jobs.Request{
		Examples:   in.examples,
		Workers:    req.Workers,
		Label:      req.Label,
		TaskIDs:    in.ids,
		Translator: in.tenant,
		Trace:      trace.LinkFromContext(r.Context()),
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, jobs.ErrShuttingDown):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(s.jobStatusResponse(st, false))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Get(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, s.jobStatusResponse(st, true))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, s.jobStatusResponse(st, true))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	out := JobListResponse{Jobs: []JobStatusResponse{}}
	for _, st := range s.jobs.List() {
		out.Jobs = append(out.Jobs, s.jobStatusResponse(st, false))
	}
	writeJSON(w, out)
}
