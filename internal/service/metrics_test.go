package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/metrics"
)

// metricsServer builds a server with the full observability wiring: an
// instrumented LLM cache and jobs.
func metricsServer(t *testing.T) *httptest.Server {
	t.Helper()
	c := tenantCorpus()
	cfg := core.DefaultConfig()
	cfg.Consistency = 3
	base := llm.NewSim(llm.ChatGPT)
	cache := llm.NewCache(base, 256)
	p := core.New(c.Train.Examples, cache, cfg)
	s := New(p, c, WithJobs(jobs.Config{Runners: 1, Queue: 4}))
	cache.Instrument(s.Registry(), "llm")
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// scrape fetches url's /v1/metrics and parses the exposition into samples
// keyed by name{labels}, failing the test on a non-200 or a malformed body.
func scrape(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("content type %q, want %q", ct, metrics.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition is not valid Prometheus text: %v\n%s", err, body)
	}
	return samples, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	srv := metricsServer(t)

	// Generate traffic across routes and status codes.
	id := 0
	var tr TranslateResponse
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{TaskID: &id}, &tr)
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{TaskID: &id}, &tr)
	bad := 99999
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{TaskID: &bad}, nil) // 404
	resp, err := http.Get(srv.URL + "/v1/databases")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	samples, body := scrape(t, srv.URL)

	if got := samples[`http_requests_total{code="200",route="POST /v1/translate"}`]; got != 2 {
		t.Errorf("translate 200 count = %g, want 2\n%s", got, body)
	}
	if got := samples[`http_requests_total{code="404",route="POST /v1/translate"}`]; got != 1 {
		t.Errorf("translate 404 count = %g, want 1", got)
	}
	if got := samples[`http_requests_total{code="200",route="GET /v1/databases"}`]; got != 1 {
		t.Errorf("databases 200 count = %g, want 1", got)
	}
	// The latency histogram must agree with the counter and expose buckets.
	if got := samples[`http_request_duration_seconds_count{route="POST /v1/translate"}`]; got != 3 {
		t.Errorf("translate histogram count = %g, want 3", got)
	}
	if !strings.Contains(body, `http_request_duration_seconds_bucket{route="POST /v1/translate",le="+Inf"}`) {
		t.Error("missing +Inf bucket for the translate route")
	}
	// Subsystem collectors: the LLM cache and jobs manager must contribute.
	if _, ok := samples[`llm_cache_misses_total{cache="llm"}`]; !ok {
		t.Error("llm cache collector missing from exposition")
	}
	if got := samples[`jobs_queue_capacity`]; got != 4 {
		t.Errorf("jobs_queue_capacity = %g, want 4", got)
	}
	if _, ok := samples[`plan_cache_hits_total{cache="shared"}`]; !ok {
		t.Error("shared plan cache collector missing from exposition")
	}
	if got := samples[`http_inflight_requests`]; got != 1 {
		// The scrape itself is in flight while the exposition renders.
		t.Errorf("http_inflight_requests = %g, want 1 (the scrape)", got)
	}
}

// TestMetricsScrapeIsSelfInstrumented: the /v1/metrics route records itself,
// so the second scrape sees the first.
func TestMetricsScrapeIsSelfInstrumented(t *testing.T) {
	srv := metricsServer(t)
	scrape(t, srv.URL)
	samples, _ := scrape(t, srv.URL)
	if got := samples[`http_requests_total{code="200",route="GET /v1/metrics"}`]; got != 1 {
		t.Errorf("metrics route count on second scrape = %g, want 1", got)
	}
}

// TestMetricsConcurrentScrape races traffic against scrapes; meaningful
// under -race.
func TestMetricsConcurrentScrape(t *testing.T) {
	srv := metricsServer(t)
	done := make(chan error, 2)
	go func() {
		var firstErr error
		for i := 0; i < 10; i++ {
			id := i % 3
			var tr TranslateResponse
			data := fmt.Sprintf(`{"task_id": %d}`, id)
			resp, err := http.Post(srv.URL+"/v1/translate", "application/json", strings.NewReader(data))
			if err != nil {
				firstErr = err
				break
			}
			resp.Body.Close()
			_ = tr
		}
		done <- firstErr
	}()
	go func() {
		var firstErr error
		for i := 0; i < 10; i++ {
			resp, err := http.Get(srv.URL + "/v1/metrics")
			if err != nil {
				firstErr = err
				break
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if _, err := metrics.ParseExposition(body); err != nil {
				firstErr = err
				break
			}
		}
		done <- firstErr
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
