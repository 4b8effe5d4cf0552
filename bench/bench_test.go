package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/service"
	"repro/internal/spider"
	"repro/internal/trace"
)

// TestSpec checks BENCHMARK.json against its limits and against the
// program: every workload is implemented, and every per-layer metric
// names the end-to-end metric and workload it should move.
func TestSpec(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d workloads implemented, %d specified", len(workloads), len(spec.Workloads))
	}
	bounds := map[string]float64{}
	var largest float64
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = *m.Bound
		largest = math.Max(largest, *m.Bound)
	}
	if bounds["setup_s"] != largest {
		t.Errorf("setup_s bound %v is not the largest (%v)", bounds["setup_s"], largest)
	}
	perLayer := map[string]bool{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = true
		tg, ok := layerTargets[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s has no target", m.Name)
			continue
		}
		if _, ok := bounds[tg.metric]; !ok {
			t.Errorf("per-layer metric %s targets unknown end-to-end metric %s", m.Name, tg.metric)
		}
		if !spec.workload(tg.workload) {
			t.Errorf("per-layer metric %s targets unknown workload %s", m.Name, tg.workload)
		}
	}
	if len(layerTargets) != len(spec.PerLayer) {
		t.Errorf("%d layer targets, %d per-layer metrics", len(layerTargets), len(spec.PerLayer))
	}
	for _, w := range workloads {
		for _, name := range w.layers {
			if !perLayer[name] {
				t.Errorf("workload %s requires unknown layer %s", w.name, name)
			}
		}
	}
}

// TestLedgerFromServiceTrace drives the real translate handler the way a
// run does: a sampled traceparent yields a span tree from /v1/traces/{id}
// that fills every pipeline layer, and an unsampled one records nothing.
func TestLedgerFromServiceTrace(t *testing.T) {
	corpus := spider.GenerateSmall(1, 0.05)
	pipe := core.New(corpus.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	tracer := trace.New(trace.Config{Sample: 1})
	h := service.New(pipe, corpus, service.WithTracer(tracer)).Handler()
	serve := func(method, path, body, traceparent string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set(trace.TraceparentHeader, traceparent)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}

	serve(http.MethodPost, "/v1/translate", `{"task_id": 0}`, unsampled)
	if n := len(tracer.Traces(trace.Filter{})); n != 0 {
		t.Fatalf("an unsampled request was recorded (%d traces)", n)
	}

	l := newLedger()
	const tasks = 8
	for id := 0; id < tasks; id++ {
		sc := trace.NewSpanContext(true)
		var got translateAnswer
		body := serve(http.MethodPost, "/v1/translate", `{"task_id": `+strconv.Itoa(id)+`}`, sc.Header()).Body.Bytes()
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		l.demos(got.DemosUsed, 1)
		var tj trace.TraceJSON
		if err := json.Unmarshal(serve(http.MethodGet, "/v1/traces/"+sc.TraceID.String(), "", unsampled).Body.Bytes(), &tj); err != nil {
			t.Fatal(err)
		}
		if err := complete(tj, sc.SpanID.String()); err != nil {
			t.Fatalf("task %d: %v", id, err)
		}
		l.add(tj)
	}
	layers, diag := l.spanLayers()
	if err := checkLayers(workloads["ask-cold"], layers); err != nil {
		t.Error(err)
	}
	for _, name := range []string{"core.translate_ms", "service.unexplained_ms", "prompt.demos_used", "prompt.input_tokens"} {
		if layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, layers[name])
		}
	}
	if c := diag["stage_coverage"].Value; c <= 0 || c > 1 {
		t.Errorf("stage coverage %v, want in (0, 1]", c)
	}
	if l.trees != tasks {
		t.Errorf("%d trees, want %d", l.trees, tasks)
	}
}

func TestSelfTimeMergesParallelChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	l := newLedger()
	l.add(trace.TraceJSON{Spans: []trace.SpanJSON{
		{SpanID: "b", ParentID: "client", Name: "batch", Start: at(0), DurationMs: 0.1},
		{SpanID: "i1", ParentID: "b", Name: "item", Start: at(10), DurationMs: 0.04},
		{SpanID: "i2", ParentID: "b", Name: "item", Start: at(30), DurationMs: 0.04},
		{SpanID: "i3", ParentID: "b", Name: "item", Start: at(80), DurationMs: 0.01},
	}})
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	// The items cover 10-70 and 80-90 of the batch's 100 µs.
	if !near(l.self["batch"], 0.03) || !near(l.total["batch"], 0.1) || !near(l.self["item"], 0.09) {
		t.Errorf("total %v self %v; want batch self 0.03 of 0.1 ms, items 0.09 ms", l.total, l.self)
	}
}

func TestCPUTicks(t *testing.T) {
	steal, total, err := cpuTicks()
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || steal < 0 || steal > total {
		t.Errorf("steal %v of total %v ticks", steal, total)
	}
}

func TestQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	lat := []float64{3, 1, math.Inf(1), 2}
	if p50, p99 := rankQuantile(lat, 0.5), rankQuantile(lat, 0.99); p50 != 2 || !math.IsInf(p99, 1) {
		t.Errorf("p50 %v p99 %v; want 2 and +Inf (a failure misses every limit)", p50, p99)
	}
}

// TestProcessCPU reads this process's CPU clock the way a run reads the
// servers': by pid, advancing with work done.
func TestProcessCPU(t *testing.T) {
	runtime.LockOSThread() // threadCPU must read one thread's clock throughout
	defer runtime.UnlockOSThread()
	before, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for t0 := threadCPU(); threadCPU()-t0 < 20*time.Millisecond; {
	}
	after, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 20*time.Millisecond {
		t.Errorf("process CPU advanced %v over 20ms of busy work", d)
	}
}

func TestJudge(t *testing.T) {
	bound := 0.1
	lower := MetricSpec{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", []float64{10.02, 9.98, 10.0, 10.1, 9.9}, "unchanged"},
		{"faster", []float64{8.0, 8.1, 7.9, 8.05, 7.95}, "improved"},
		{"slower", []float64{12.0, 12.1, 11.9, 12.05, 11.95}, "regressed"},
		{"noisy", []float64{5, 15, 10, 20, 8}, "unresolved"},
	} {
		if _, got := judge(lower, base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	zero := 0.0
	acc := MetricSpec{Name: "ex_accuracy", Better: "higher", Bound: &zero}
	if _, got := judge(acc, []float64{0.86, 0.86}, []float64{0.85, 0.85}); got != "regressed" {
		t.Errorf("accuracy drop: verdict %s, want regressed", got)
	}
}
