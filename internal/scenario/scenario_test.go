package scenario

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/spider"
)

func TestParseGood(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "demo",
		"tenants": 2,
		"seed": 9,
		"mix": "translate=1,execute=3",
		"phases": [
			{"name": "up", "kind": "ramp", "duration": "5s", "start_rps": 5, "rps": 50},
			{"name": "hold", "kind": "steady", "duration": "10s", "rps": 50,
			 "slo": {"max_error_rate": 0.01, "max_p95_ms": 250}},
			{"name": "burst", "kind": "spike", "duration": "2s", "rps": 200, "max_inflight": 64},
			{"name": "shuffle", "kind": "churn", "duration": "5s", "rps": 20,
			 "churn_interval": "500ms", "churn_tenants": 3},
			{"name": "stampede", "kind": "register-storm", "duration": "3s", "rps": 10},
			{"name": "drown", "kind": "saturate-jobs", "duration": "4s", "workers": 8,
			 "brownout": {"latency_ms": 150, "error_rate": 0.2}, "settle": "1s",
			 "slo": {"min_429": 1, "metric_deltas": [{"metric": "jobs_rejected_total", "min": 1}]}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Phases) != 6 {
		t.Fatalf("parsed %d phases, want 6", len(spec.Phases))
	}
	if d := time.Duration(spec.Phases[0].Duration); d != 5*time.Second {
		t.Errorf("phase 0 duration = %s", d)
	}
	if spec.Phases[5].Brownout.LatencyMs != 150 {
		t.Errorf("brownout did not parse: %+v", spec.Phases[5].Brownout)
	}
	if got := *spec.Phases[1].SLO.MaxErrorRate; got != 0.01 {
		t.Errorf("slo max_error_rate = %g", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"unknown kind",
			`{"name":"x","phases":[{"name":"p","kind":"wobble","duration":"1s","rps":5}]}`,
			"unknown kind"},
		{"zero duration",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"0s","rps":5}]}`,
			"duration must be positive"},
		{"negative rps",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":-5}]}`,
			"negative rate"},
		{"bad mix",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5,"mix":"bogus=1"}]}`,
			"unknown request type"},
		{"no phases", `{"name":"x","phases":[]}`, "no phases"},
		{"missing name", `{"phases":[{"name":"p","kind":"steady","duration":"1s","rps":5}]}`, "missing name"},
		{"duplicate phase",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5},{"name":"p","kind":"steady","duration":"1s","rps":5}]}`,
			"duplicate phase"},
		{"unknown field",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5,"slo":{"max_p95": 10}}]}`,
			"unknown field"},
		{"duration as number",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":5,"rps":5}]}`,
			"durations are strings"},
		{"ramp without rps",
			`{"name":"x","phases":[{"name":"p","kind":"ramp","duration":"1s"}]}`,
			"ramp needs"},
		{"steady without load",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s"}]}`,
			"needs rps"},
		{"rps and workers",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5,"workers":2}]}`,
			"mutually exclusive"},
		{"churn without interval",
			`{"name":"x","phases":[{"name":"p","kind":"churn","duration":"1s","rps":5}]}`,
			"churn needs a positive churn_interval"},
		{"storm with mix",
			`{"name":"x","phases":[{"name":"p","kind":"register-storm","duration":"1s","rps":5,"mix":"execute=1"}]}`,
			"registrations only"},
		{"brownout error rate",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5,"brownout":{"error_rate":1.5}}]}`,
			"error_rate must be in [0,1]"},
		{"slo error rate over 1",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5,"slo":{"max_error_rate":2}}]}`,
			"must be in [0,1]"},
		{"negative slo bound",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5,"slo":{"max_p99_ms":-1}}]}`,
			"must be >= 0"},
		{"metric delta unbounded",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5,"slo":{"metric_deltas":[{"metric":"m"}]}}]}`,
			"neither min nor max"},
		{"metric delta unnamed",
			`{"name":"x","phases":[{"name":"p","kind":"steady","duration":"1s","rps":5,"slo":{"metric_deltas":[{"min":1}]}}]}`,
			"missing metric name"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.spec))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func f64(v float64) *float64 { return &v }
func i64(v int64) *int64     { return &v }

// TestSLOZeroRequestPhase: a traffic phase that offered nothing must fail
// its SLO loudly instead of passing every bound vacuously.
func TestSLOZeroRequestPhase(t *testing.T) {
	p := &Phase{Name: "dead", Kind: KindSteady, SLO: &SLO{MaxP95Ms: f64(100)}}
	checks := evalSLO(p, &PhaseResult{})
	if len(checks) != 1 || checks[0].Passed || checks[0].Name != "phase_traffic" {
		t.Fatalf("zero-request phase checks = %+v", checks)
	}
}

// TestSLOMissingMetric: gating on a metric the server never exported is a
// violation, not a silent zero-delta pass.
func TestSLOMissingMetric(t *testing.T) {
	p := &Phase{Name: "p", Kind: KindSteady, SLO: &SLO{
		MetricDeltas: []MetricDelta{{Metric: "no_such_metric_total", Min: f64(0)}},
	}}
	pr := &PhaseResult{Traffic: loadgen.OpResult{Requests: 10}}
	checks := evalSLO(p, pr)
	if len(checks) != 1 || checks[0].Passed {
		t.Fatalf("missing metric checks = %+v", checks)
	}
	if !strings.Contains(checks[0].Detail, "absent") {
		t.Errorf("missing-metric detail = %q", checks[0].Detail)
	}
}

func TestSLOEvaluation(t *testing.T) {
	p := &Phase{Name: "p", Kind: KindSteady, SLO: &SLO{
		MaxErrorRate:     f64(0.1),
		MaxP95Ms:         f64(100),
		Max429Rate:       f64(0.5),
		Min429:           i64(1),
		MinThroughputRPS: f64(5),
		MetricDeltas:     []MetricDelta{{Metric: "m_total", Min: f64(1), Max: f64(100)}},
	}}
	pr := &PhaseResult{
		Traffic: loadgen.OpResult{
			Requests: 90, Dropped: 10, Non2xx: 9, Status429: 9,
			ErrorRate:     0.19, // (9+10)/100
			ThroughputRPS: 45,
		},
		MetricDeltas: map[string]float64{"m_total": 50},
	}
	pr.Traffic.LatencyMs.P95 = 80
	byName := map[string]SLOCheck{}
	for _, c := range evalSLO(p, pr) {
		byName[c.Name] = c
	}
	if c := byName["max_error_rate"]; c.Passed || c.Value != 0.19 {
		t.Errorf("max_error_rate = %+v, want failed at 0.19", c)
	}
	if c := byName["max_p95_ms"]; !c.Passed {
		t.Errorf("max_p95_ms = %+v, want pass", c)
	}
	if c := byName["max_429_rate"]; !c.Passed || c.Value != 0.09 {
		t.Errorf("max_429_rate = %+v, want pass at 0.09", c)
	}
	if c := byName["min_429"]; !c.Passed {
		t.Errorf("min_429 = %+v, want pass", c)
	}
	if c := byName["min_throughput_rps"]; !c.Passed {
		t.Errorf("min_throughput_rps = %+v, want pass", c)
	}
	if c := byName["metric_delta:m_total>="]; !c.Passed {
		t.Errorf("metric_delta min = %+v, want pass", c)
	}
	if c := byName["metric_delta:m_total<="]; !c.Passed {
		t.Errorf("metric_delta max = %+v, want pass", c)
	}
}

// testServer builds the full serving stack with a small jobs queue and the
// LLM fault layer wired exactly like nl2sql-server -llm-fault does: the
// pipeline client is wrapped OUTSIDE its cache so brownout latency applies
// to every request, cache hit or not.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	corpus := spider.GenerateSmall(7, 0.04)
	cfg := core.DefaultConfig()
	fault := llm.NewFault(llm.FaultConfig{})
	sim := llm.NewSim(llm.ChatGPT)
	cache := llm.NewCache(sim, 512)
	client := fault.Wrap(cache)
	p := core.New(corpus.Train.Examples, client, cfg)
	cat, err := catalog.New(catalog.Config{Client: fault.Wrap(sim), Base: p})
	if err != nil {
		t.Fatal(err)
	}
	s := service.New(p, corpus,
		service.WithCatalog(cat),
		service.WithJobs(jobs.Config{Runners: 1, Queue: 2}),
		service.WithFault(fault),
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
	return srv
}

// TestScenarioRun drives a five-kind plan end to end against a live stack:
// ramp and steady traffic, tenant churn, a registration storm, and a
// brownout-saturated jobs phase that must trip admission control.
func TestScenarioRun(t *testing.T) {
	srv := testServer(t)
	spec, err := Parse([]byte(`{
		"name": "integration",
		"tenants": 1,
		"seed": 5,
		"phases": [
			{"name": "warm", "kind": "steady", "duration": "300ms", "rps": 40, "mix": "execute=1",
			 "slo": {"max_error_rate": 0, "min_throughput_rps": 1}},
			{"name": "up", "kind": "ramp", "duration": "300ms", "start_rps": 10, "rps": 80, "mix": "execute=1"},
			{"name": "shuffle", "kind": "churn", "duration": "400ms", "rps": 30,
			 "churn_interval": "100ms", "mix": "execute=1"},
			{"name": "stampede", "kind": "register-storm", "duration": "300ms", "rps": 20},
			{"name": "brownout", "kind": "saturate-jobs", "duration": "500ms", "workers": 4,
			 "brownout": {"latency_ms": 120}, "settle": "100ms",
			 "slo": {"min_429": 1,
			         "metric_deltas": [{"metric": "llm_fault_calls_total", "min": 1},
			                           {"metric": "jobs_rejected_total", "min": 1}]}}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, Options{BaseURL: srv.URL, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 5 {
		t.Fatalf("got %d phase results, want 5", len(res.Phases))
	}
	if !res.Passed {
		for _, pr := range res.Phases {
			if !pr.Passed {
				t.Errorf("phase %q failed: %s", pr.Name, failSummary(pr.Checks))
			}
		}
		t.Fatal("scenario failed")
	}
	byName := map[string]PhaseResult{}
	for _, pr := range res.Phases {
		byName[pr.Name] = pr
	}
	if byName["warm"].Traffic.Requests == 0 {
		t.Error("warm phase sent nothing")
	}
	if ch := byName["shuffle"].Registrations; ch == nil || ch.Attempts == 0 || ch.Deleted == 0 {
		t.Errorf("churn side channel idle: %+v", ch)
	}
	if st := byName["stampede"].Registrations; st == nil || st.Created == 0 {
		t.Errorf("register-storm created nothing: %+v", st)
	}
	bo := byName["brownout"]
	if bo.Traffic.Status429 == 0 {
		t.Error("saturate-jobs under brownout produced no 429s")
	}
	if bo.MetricDeltas["llm_fault_calls_total"] < 1 {
		t.Errorf("fault layer saw no calls: %+v", bo.MetricDeltas)
	}
}

// TestScenarioSLOFailure: a violated SLO marks the phase and the run as
// failed without erroring out, and later phases still execute.
func TestScenarioSLOFailure(t *testing.T) {
	srv := testServer(t)
	spec, err := Parse([]byte(`{
		"name": "fail",
		"seed": 3,
		"phases": [
			{"name": "impossible", "kind": "steady", "duration": "200ms", "rps": 30, "mix": "execute=1",
			 "slo": {"min_throughput_rps": 1000000}},
			{"name": "after", "kind": "steady", "duration": "200ms", "rps": 20, "mix": "execute=1"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, Options{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("impossible SLO passed")
	}
	if len(res.Phases) != 2 {
		t.Fatalf("later phases did not run: %d results", len(res.Phases))
	}
	if res.Phases[1].Traffic.Requests == 0 {
		t.Error("phase after a violation sent nothing")
	}
}

// TestScenarioBrownoutRequiresFaultLayer: a brownout phase against a server
// without -llm-fault is a plan-level error, not a silent no-op.
func TestScenarioBrownoutRequiresFaultLayer(t *testing.T) {
	corpus := spider.GenerateSmall(5, 0.04)
	p := core.New(corpus.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	srv := httptest.NewServer(service.New(p, corpus).Handler())
	defer srv.Close()
	spec, err := Parse([]byte(`{
		"name": "nofault",
		"phases": [{"name": "b", "kind": "steady", "duration": "100ms", "rps": 10,
		            "brownout": {"latency_ms": 10}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, Options{BaseURL: srv.URL}); err == nil {
		t.Fatal("brownout against a fault-less server did not error")
	} else if !strings.Contains(err.Error(), "llm-fault") {
		t.Errorf("error %q does not point at -llm-fault", err)
	}
}
