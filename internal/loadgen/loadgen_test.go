package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/spider"
	"repro/internal/trace"
)

// The serving substrate is expensive to generate; build it once for the
// package.
var (
	srvOnce   sync.Once
	srvCorpus *spider.Corpus
)

func testService(t *testing.T) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	srvOnce.Do(func() {
		srvCorpus = spider.GenerateSmall(13, 0.05)
	})
	cfg := core.DefaultConfig()
	cfg.Consistency = 3
	client := llm.NewSim(llm.ChatGPT)
	cache := llm.NewCache(client, 512)
	p := core.New(srvCorpus.Train.Examples, cache, cfg)
	cat, err := catalog.New(catalog.Config{Client: client, Base: p})
	if err != nil {
		t.Fatal(err)
	}
	// Sample 0: the server records only requests arriving with a sampled
	// traceparent, which is exactly what TestTraceSampling asserts. The
	// recent ring is sized far past anything a sub-second run can produce,
	// so every reported slow-trace ID is still resolvable — at the default
	// cap the run's slowest trace can age out before the test fetches it.
	tr := trace.New(trace.Config{Service: "loadgen-test", Sample: 0, Slow: time.Hour, RecentCap: 1 << 16})
	s := service.New(p, srvCorpus,
		service.WithCatalog(cat),
		service.WithJobs(jobs.Config{Runners: 1, Queue: 8}),
		service.WithTracer(tr),
	)
	cache.Instrument(s.Registry(), "llm")
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		cat.Close(ctx)
	})
	return srv, s.Registry()
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("")
	if err != nil || m != DefaultMix {
		t.Fatalf("empty mix = %+v, %v; want default", m, err)
	}
	m, err = ParseMix("translate=2,execute=1")
	if err != nil || m.Translate != 2 || m.Execute != 1 || m.Batch != 0 || m.Jobs != 0 {
		t.Fatalf("mix = %+v, %v", m, err)
	}
	for _, bad := range []string{"translate", "translate=x", "bogus=1", "translate=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestClosedLoopRun(t *testing.T) {
	srv, _ := testService(t)
	rep, err := Run(context.Background(), Config{
		BaseURL:   srv.URL,
		Duration:  400 * time.Millisecond,
		Workers:   4,
		Mix:       Mix{Translate: 1, Execute: 2, Batch: 1, Jobs: 1},
		Tasks:     4,
		BatchSize: 3,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := rep.All()
	if all.Requests == 0 {
		t.Fatal("closed loop produced no requests")
	}
	// A healthy server answers every request. The jobs op is fire-and-forget
	// into a 1-runner, 8-slot queue, which sheds with 429 by contract when
	// the machine is busy, so jobs (and the aggregate) may carry 429s and no
	// other non-2xx; every other op must be all 2xx.
	for _, row := range rep.Results {
		switch {
		case row.Errors != 0:
			t.Fatalf("%s: transport errors against a healthy server: %+v", row.Name, row)
		case row.Name == "jobs" || row.Name == "all":
			if row.Non2xx != row.Status429 {
				t.Fatalf("%s: non-2xx beyond admission-control 429s: %+v", row.Name, row)
			}
		case row.Non2xx != 0:
			t.Fatalf("%s: non-2xx against a healthy server: %+v", row.Name, row)
		}
	}
	if rep.Mode != "closed" {
		t.Errorf("mode = %q, want closed", rep.Mode)
	}
	l := all.LatencyMs
	if !(l.P50 <= l.P95 && l.P95 <= l.P99) {
		t.Errorf("percentiles out of order: %+v", l)
	}
	if l.Max <= 0 || l.Mean <= 0 {
		t.Errorf("mean/max must be positive: %+v", l)
	}
	// Per-op rows precede the aggregate and sum to it.
	var sum int64
	seen := map[string]bool{}
	for _, row := range rep.Results {
		if row.Name == "all" {
			continue
		}
		seen[row.Name] = true
		sum += row.Requests
	}
	for _, op := range []string{"translate", "execute", "batch", "jobs"} {
		if !seen[op] {
			t.Errorf("missing row for %s", op)
		}
	}
	if sum != all.Requests {
		t.Errorf("per-op requests %d != aggregate %d", sum, all.Requests)
	}
	// The server-side middleware must account for at least what we sent.
	if err := CheckMetrics(nil, srv.URL, all.Requests); err != nil {
		t.Errorf("metrics self-check: %v", err)
	}
}

func TestOpenLoopRun(t *testing.T) {
	srv, _ := testService(t)
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Duration: 400 * time.Millisecond,
		Rate:     100,
		Mix:      Mix{Execute: 1},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := rep.All()
	if rep.Mode != "open" || rep.RateRPS != 100 {
		t.Errorf("mode/rate = %q/%g, want open/100", rep.Mode, rep.RateRPS)
	}
	if all.Requests == 0 {
		t.Fatal("open loop produced no requests")
	}
	// The clock dispatches ~rate*duration requests; allow broad slack for CI
	// timers but catch a loop that free-runs far beyond the configured rate.
	if all.Requests+all.Dropped > 100 {
		t.Errorf("open loop sent %d (+%d dropped), far over rate*duration=40", all.Requests, all.Dropped)
	}
	if all.Errors != 0 || all.Non2xx != 0 {
		t.Fatalf("unexpected failures: %+v", all)
	}
}

func TestTenantFanout(t *testing.T) {
	srv, _ := testService(t)
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Duration: 400 * time.Millisecond,
		Workers:  3,
		Mix:      Mix{Translate: 1, Execute: 1},
		Tenants:  2,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := rep.All()
	if all.Requests == 0 {
		t.Fatal("tenant run produced no requests")
	}
	if all.Errors != 0 || all.Non2xx != 0 {
		t.Fatalf("unexpected failures on the tenant path: %+v", all)
	}
	// Re-running against the same server must tolerate the already-registered
	// tenants (409 -> reuse).
	rep, err = Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Duration: 200 * time.Millisecond,
		Workers:  2,
		Mix:      Mix{Execute: 1},
		Tenants:  2,
		Seed:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.All(); got.Non2xx != 0 || got.Errors != 0 {
		t.Fatalf("rerun against existing tenants failed: %+v", got)
	}
}

// TestTraceSampling drives every request with a generator-minted sampled
// traceparent against a server whose own head-sampling is 0, proving the
// edge decision forces recording, the report carries resolvable slow-trace
// IDs, and /v1/traces/{id} returns the span tree for one of them.
func TestTraceSampling(t *testing.T) {
	srv, _ := testService(t)
	rep, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		Duration:    300 * time.Millisecond,
		Workers:     2,
		Mix:         Mix{Execute: 1},
		TraceSample: 1,
		SlowTraces:  3,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var slow []SlowTrace
	for _, row := range rep.Results {
		if row.Name == "execute" {
			slow = row.SlowTraces
		}
	}
	if len(slow) == 0 {
		t.Fatal("TraceSample=1 produced no slow-trace rows")
	}
	if len(slow) > 1 && slow[0].DurationMs < slow[1].DurationMs {
		t.Errorf("slow traces not sorted slowest-first: %+v", slow)
	}
	resp, err := http.Get(srv.URL + "/v1/traces/" + slow[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d, want 200", slow[0].TraceID, resp.StatusCode)
	}
	var tree trace.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	if tree.TraceID != slow[0].TraceID || len(tree.Spans) == 0 {
		t.Fatalf("trace %s came back as %q with %d spans", slow[0].TraceID, tree.TraceID, len(tree.Spans))
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Duration: time.Second}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x"}); err == nil {
		t.Error("missing Duration accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Duration: time.Second, Rate: -1}); err == nil {
		t.Error("negative Rate accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Duration: time.Second, RateEnd: 50}); err == nil {
		t.Error("RateEnd without an open loop accepted")
	}
}

// stubServer serves just enough of the API surface for an /execute-only run:
// target discovery plus a configurable execute handler.
func stubServer(t *testing.T, execute http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/databases", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]map[string]any{
			{"name": "stub", "tables": []string{"t"}, "source": "benchmark"},
		})
	})
	mux.HandleFunc("POST /v1/execute", execute)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestOpenLoopRamp checks RateEnd turns the dispatch clock into a linear
// ramp: 20->180 rps over the run averages ~100 rps, far from either
// endpoint held constant (20 rps -> ~10 dispatches, 180 rps -> ~90).
func TestOpenLoopRamp(t *testing.T) {
	srv := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Duration: 500 * time.Millisecond,
		Rate:     20,
		RateEnd:  180,
		Mix:      Mix{Execute: 1},
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := rep.All()
	total := all.Requests + all.Dropped
	if total < 20 || total > 80 {
		t.Errorf("ramp 20->180 over 500ms dispatched %d, want ~50", total)
	}
	if rep.RateRPS != 20 || rep.RateEndRPS != 180 {
		t.Errorf("report rates = %g->%g, want 20->180", rep.RateRPS, rep.RateEndRPS)
	}
}

// TestDropAccounting pins the open-loop shed semantics: dropped dispatches
// never reach the latency histogram (they were never sent) but they do
// count against the error-rate gate over the offered load.
func TestDropAccounting(t *testing.T) {
	srv := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(40 * time.Millisecond)
		w.Write([]byte(`{}`))
	})
	rep, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		Duration:    400 * time.Millisecond,
		Rate:        300,
		MaxInFlight: 1,
		Mix:         Mix{Execute: 1},
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := rep.All()
	if all.Dropped == 0 {
		t.Fatal("MaxInFlight=1 against a 40ms handler at 300rps shed nothing")
	}
	if all.Errors != 0 || all.Non2xx != 0 {
		t.Fatalf("stub produced failures: %+v", all)
	}
	want := float64(all.Dropped) / float64(all.Requests+all.Dropped)
	if all.ErrorRate != want {
		t.Errorf("ErrorRate = %g, want drops/offered = %g", all.ErrorRate, want)
	}
	// The histogram saw only the sent requests: with a 40ms floor per call
	// every observed latency is real, and drops (instantaneous if counted)
	// would have dragged the minimum toward zero.
	if all.Requests > 0 && all.LatencyMs.P50 < 30 {
		t.Errorf("p50 = %gms; drops leaked into the latency histogram", all.LatencyMs.P50)
	}
}

func TestErrorRateFormula(t *testing.T) {
	cases := []struct {
		row  OpResult
		want float64
	}{
		{OpResult{}, 0},
		{OpResult{Requests: 80, Dropped: 20}, 0.2},
		{OpResult{Dropped: 5}, 1},
		{OpResult{Requests: 10, Errors: 1, Non2xx: 1}, 0.2},
		{OpResult{Requests: 6, Errors: 1, Non2xx: 1, Dropped: 2}, 0.5},
	}
	for _, c := range cases {
		if got := errorRate(c.row); got != c.want {
			t.Errorf("errorRate(%+v) = %g, want %g", c.row, got, c.want)
		}
	}
}

// Test429Counting: 429 responses are tallied both as Non2xx and in the
// Status429 subset scenario SLOs gate on.
func Test429Counting(t *testing.T) {
	srv := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Duration: 200 * time.Millisecond,
		Workers:  2,
		Mix:      Mix{Execute: 1},
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := rep.All()
	if all.Status429 == 0 || all.Status429 != all.Non2xx {
		t.Fatalf("Status429 = %d, Non2xx = %d; want equal and positive", all.Status429, all.Non2xx)
	}
	if all.ErrorRate != 1 {
		t.Errorf("all-429 run ErrorRate = %g, want 1", all.ErrorRate)
	}
}
