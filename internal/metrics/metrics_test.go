package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.", L("route", "/x"))
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	if again := r.Counter("requests_total", "ignored", L("route", "/x")); again != c {
		t.Fatal("get-or-create returned a different counter for the same series")
	}
	if other := r.Counter("requests_total", "", L("route", "/y")); other == c {
		t.Fatal("different label value must be a different series")
	}

	g := r.Gauge("queue_depth", "Jobs waiting.")
	g.Set(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %g, want 1", got)
	}
}

func TestLabelOrderCanonicalized(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("c_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order must not create distinct series")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering x_total as a gauge")
		}
	}()
	r.Gauge("x_total", "")
}

func TestHistogramBucketMath(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// le semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 2, 1} // (-inf,1], (1,2], (2,4], (4,+inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-21.0) > 1e-9 {
		t.Errorf("sum = %g, want 21", s.Sum)
	}
	if s.Max != 9.0 {
		t.Errorf("max = %g, want 9", s.Max)
	}
	if got := s.Mean(); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("mean = %g, want 3", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 100 uniform observations over (0,40]: quantiles should interpolate to
	// roughly q*40 within one bucket's width.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 20, 0.5},
		{0.95, 38, 0.5},
		{0.99, 39.6, 0.5},
		{0.25, 10, 0.5},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%g = %g, want %g±%g", tc.q*100, got, tc.want, tc.tol)
		}
	}
	if got := s.Quantile(1.0); got != 40 {
		t.Errorf("q100 = %g, want upper bound 40", got)
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100) // +Inf bucket
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %g, want largest finite bound 2", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewHistogram([]float64{1}).Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max != 0 {
		t.Errorf("empty histogram should read as zeros: %+v", s)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"unsorted":   {2, 1},
		"duplicate":  {1, 1},
		"contains+N": {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds: expected panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestConcurrentRecording hammers one counter, gauge and histogram from many
// goroutines; run under -race this is the data-race proof, and the totals
// prove no observation is lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 2000
	h := r.Histogram("lat_seconds", "", DefBuckets)
	c := r.Counter("ops_total", "")
	g := r.Gauge("inflight", "")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Add(1)
				c.Inc()
				h.Observe(float64(me*perG+j) * 1e-6)
				g.Add(-1)
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %g, want 0", got)
	}
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", s.Count, goroutines*perG)
	}
	sum := int64(0)
	for _, b := range s.Counts {
		sum += b
	}
	if sum != s.Count {
		t.Errorf("bucket sum %d != count %d", sum, s.Count)
	}
}

// TestConcurrentGetOrCreate races series creation against recording.
func TestConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared_total", "", L("k", string(rune('a'+j%5)))).Inc()
				r.Histogram("shared_seconds", "", DefBuckets).Observe(0.001)
			}
		}(i)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	if got := SumSamples(samples, "shared_total"); got != 8*200 {
		t.Errorf("shared_total sum = %g, want %d", got, 8*200)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("http_requests_total", "Total HTTP requests.", L("route", "POST /v1/translate"), L("code", "200"))
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	r.Gauge("inflight_requests", "In-flight HTTP requests.").Set(2)
	h := r.Histogram("req_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Collect(func(s *Sink) {
		s.Gauge("jobs_queue_depth", "Queued jobs.", 4)
		s.Counter("tenant_translations_total", "Per-tenant translations.", 7, L("tenant", `we"ird\name`))
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
	for key, want := range map[string]float64{
		`http_requests_total{code="200",route="POST /v1/translate"}`: 3,
		`inflight_requests`:                                 2,
		`req_seconds_bucket{le="0.1"}`:                      1,
		`req_seconds_bucket{le="1"}`:                        2,
		`req_seconds_bucket{le="+Inf"}`:                     3,
		`req_seconds_count`:                                 3,
		`jobs_queue_depth`:                                  4,
		`tenant_translations_total{tenant="we\"ird\\name"}`: 7,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("sample %s = %g (present=%v), want %g\n%s", key, got, ok, want, out)
		}
	}
	if math.Abs(samples["req_seconds_sum"]-5.55) > 1e-9 {
		t.Errorf("req_seconds_sum = %g, want 5.55", samples["req_seconds_sum"])
	}
	for _, header := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE inflight_requests gauge",
		"# TYPE req_seconds histogram",
		"# HELP http_requests_total Total HTTP requests.",
	} {
		if !strings.Contains(out, header+"\n") {
			t.Errorf("missing header %q in:\n%s", header, out)
		}
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"name{unclosed=\"x\" 3\n",
		"1leading_digit 3\n",
		"name{bad-label=\"x\"} 3\n",
		"name 3\nname 4\n", // duplicate series
		"# BOGUS comment style\n",
	} {
		if _, err := ParseExposition([]byte(bad)); err == nil {
			t.Errorf("ParseExposition accepted %q", bad)
		}
	}
}
