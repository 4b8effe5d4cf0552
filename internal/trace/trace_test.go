package trace

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func always() *Tracer {
	return New(Config{Service: "test", Sample: 1, Slow: 50 * time.Millisecond})
}

func TestRootChildStructure(t *testing.T) {
	tr := always()
	ctx, root := tr.StartRoot(context.Background(), "GET /x", SpanContext{})
	if root == nil {
		t.Fatal("sampled root is nil")
	}
	root.SetRoute("GET /x")
	cctx, child := StartSpan(ctx, "stage.a")
	if child == nil {
		t.Fatal("child is nil")
	}
	_, grand := StartSpan(cctx, "stage.b")
	grand.SetAttrs(Str("k", "v"), Int("n", 7), Bool("b", true))
	grand.Finish()
	child.Finish()
	root.Finish()

	id, ok := ParseTraceID(root.TraceID())
	if !ok {
		t.Fatalf("bad trace id %q", root.TraceID())
	}
	full, ok := tr.Trace(id)
	if !ok {
		t.Fatal("trace not captured")
	}
	if len(full.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(full.Spans))
	}
	byName := map[string]SpanJSON{}
	for _, s := range full.Spans {
		byName[s.Name] = s
	}
	if byName["GET /x"].ParentID != "" {
		t.Errorf("root has parent %q", byName["GET /x"].ParentID)
	}
	if byName["stage.a"].ParentID != byName["GET /x"].SpanID {
		t.Error("stage.a not parented under root")
	}
	if byName["stage.b"].ParentID != byName["stage.a"].SpanID {
		t.Error("stage.b not parented under stage.a")
	}
	attrs := byName["stage.b"].Attrs
	if attrs["k"] != "v" || attrs["n"] != int64(7) || attrs["b"] != true {
		t.Errorf("attrs = %#v", attrs)
	}
	if byName["stage.a"].Service != "test" {
		t.Errorf("service = %q", byName["stage.a"].Service)
	}
}

func TestUnsampledPathIsNil(t *testing.T) {
	tr := New(Config{Sample: 0})
	ctx, root := tr.StartRoot(context.Background(), "x", SpanContext{})
	if root != nil {
		t.Fatal("sample=0 produced a span")
	}
	if _, child := StartSpan(ctx, "y"); child != nil {
		t.Fatal("child of unsampled root is non-nil")
	}
	// Every method must be nil-receiver safe.
	root.SetAttrs(Str("a", "b"))
	root.SetError(true)
	root.SetRoute("r")
	root.SetTenant("t")
	root.Finish()
	if got := root.TraceID(); got != "" {
		t.Errorf("nil TraceID = %q", got)
	}
	var nilTracer *Tracer
	if _, sp := nilTracer.StartRoot(ctx, "x", SpanContext{}); sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if got := nilTracer.Traces(Filter{}); got != nil {
		t.Errorf("nil tracer Traces = %v", got)
	}
}

func TestRemoteParentForcesAndSuppressesSampling(t *testing.T) {
	tr := New(Config{Sample: 0}) // local sampling would always say no
	parent := NewSpanContext(true)
	ctx, sp := tr.StartRoot(context.Background(), "proxied", parent)
	if sp == nil {
		t.Fatal("sampled remote parent did not force recording")
	}
	if sp.Context().TraceID != parent.TraceID {
		t.Error("trace ID not adopted from remote parent")
	}
	sp.Finish()
	full, ok := tr.Trace(parent.TraceID)
	if !ok {
		t.Fatal("forced trace not captured")
	}
	if full.Spans[0].ParentID != parent.SpanID.String() {
		t.Errorf("root parent = %q, want remote %q", full.Spans[0].ParentID, parent.SpanID.String())
	}

	tr2 := New(Config{Sample: 1}) // local sampling would always say yes
	unsampled := NewSpanContext(false)
	if _, sp := tr2.StartRoot(ctx, "proxied", unsampled); sp != nil {
		t.Fatal("unsampled remote parent did not suppress recording")
	}
}

func TestTailRetention(t *testing.T) {
	tr := New(Config{Sample: 1, Slow: 10 * time.Millisecond, RecentCap: 2})
	finishAfter := func(name string, d time.Duration, fail bool) TraceID {
		_, sp := tr.StartRoot(context.Background(), name, SpanContext{})
		sp.SetError(fail)
		sp.FinishAt(sp.start.Add(d))
		return sp.rec.id
	}
	slowID := finishAfter("slow", 20*time.Millisecond, false)
	errID := finishAfter("err", time.Millisecond, true)
	fastID := finishAfter("fast1", time.Millisecond, false)
	// Churn the recent ring (cap 2) so fast1 is evicted from it.
	finishAfter("fast2", time.Millisecond, false)
	finishAfter("fast3", time.Millisecond, false)

	if _, ok := tr.Trace(slowID); !ok {
		t.Error("slow trace evicted despite retention")
	}
	if _, ok := tr.Trace(errID); !ok {
		t.Error("error trace evicted despite retention")
	}
	if _, ok := tr.Trace(fastID); ok {
		t.Error("fast trace survived a full recent-ring churn")
	}
}

func TestLateSpanPromotesTrace(t *testing.T) {
	tr := New(Config{Sample: 1, Slow: 10 * time.Millisecond, RecentCap: 2})
	ctx, root := tr.StartRoot(context.Background(), "req", SpanContext{})
	link := LinkFromContext(ctx)
	root.Finish() // fast root: recent ring only

	late := link.Span("jobs.run", time.Now())
	late.FinishAt(late.start.Add(time.Second)) // very slow async work

	// Churn the recent ring; the promoted trace must survive.
	for i := 0; i < 3; i++ {
		_, sp := tr.StartRoot(context.Background(), "filler", SpanContext{})
		sp.Finish()
	}
	full, ok := tr.Trace(root.rec.id)
	if !ok {
		t.Fatal("slow late span did not promote trace into retained ring")
	}
	if len(full.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(full.Spans))
	}
}

func TestFilters(t *testing.T) {
	tr := always()
	mk := func(route, tenant string, d time.Duration, fail bool) {
		_, sp := tr.StartRoot(context.Background(), route, SpanContext{})
		sp.SetRoute(route)
		if tenant != "" {
			sp.SetTenant(tenant)
		}
		sp.SetError(fail)
		sp.FinishAt(sp.start.Add(d))
	}
	mk("POST /v1/translate", "acme", 5*time.Millisecond, false)
	mk("POST /v1/translate", "globex", 80*time.Millisecond, false)
	mk("POST /v1/execute", "acme", time.Millisecond, true)

	if got := len(tr.Traces(Filter{})); got != 3 {
		t.Errorf("unfiltered = %d, want 3", got)
	}
	if got := len(tr.Traces(Filter{Route: "POST /v1/translate"})); got != 2 {
		t.Errorf("route filter = %d, want 2", got)
	}
	if got := len(tr.Traces(Filter{Tenant: "acme"})); got != 2 {
		t.Errorf("tenant filter = %d, want 2", got)
	}
	if got := len(tr.Traces(Filter{MinDuration: 50 * time.Millisecond})); got != 1 {
		t.Errorf("min-duration filter = %d, want 1", got)
	}
	if got := len(tr.Traces(Filter{ErrorsOnly: true})); got != 1 {
		t.Errorf("errors filter = %d, want 1", got)
	}
	if got := len(tr.Traces(Filter{Limit: 2})); got != 2 {
		t.Errorf("limit = %d, want 2", got)
	}

	ex := tr.Exemplars()
	if ex["POST /v1/translate"].DurationMs < 79 {
		t.Errorf("exemplar did not keep slowest: %+v", ex)
	}
}

// TestExemplarsResolve: an exemplar is the slowest trace per route that the
// rings still hold, so it resolves on Trace even after a slower trace on the
// same route has been evicted.
func TestExemplarsResolve(t *testing.T) {
	tr := New(Config{Sample: 1, RecentCap: 2}) // Slow 0: nothing is retained
	finish := func(d time.Duration) TraceID {
		_, sp := tr.StartRoot(context.Background(), "op", SpanContext{})
		sp.SetRoute("GET /x")
		sp.FinishAt(sp.start.Add(d))
		return sp.rec.id
	}
	slow := finish(80 * time.Millisecond)
	held := map[string]bool{finish(time.Millisecond).String(): true, finish(time.Millisecond).String(): true}
	if _, ok := tr.Trace(slow); ok {
		t.Fatal("the 80ms trace survived a full recent-ring churn")
	}
	ex, ok := tr.Exemplars()["GET /x"]
	if !ok {
		t.Fatal("no exemplar for the route")
	}
	id, _ := ParseTraceID(ex.TraceID)
	if _, ok := tr.Trace(id); !ok {
		t.Fatalf("exemplar %s (%.0fms) does not resolve", ex.TraceID, ex.DurationMs)
	}
	if !held[ex.TraceID] || ex.DurationMs != 1 {
		t.Errorf("exemplar = %+v, want one of the two held 1ms traces", ex)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext(true)
	got, ok := ParseTraceparent(sc.Header())
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Header())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}

	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if sc, ok := ParseTraceparent(valid); !ok || !sc.Sampled {
		t.Errorf("reference header rejected")
	}
	// Future version with extra field is accepted.
	if _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future-version header rejected")
	}
	bad := []string{
		"",
		"00",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",      // invalid version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",      // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",      // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bX-01",      // bad hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-tail", // v00 must be exactly 55
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",      // bad version hex
		"00+4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",      // bad separator
		strings.Repeat("0", 55), // no separators
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted malformed %q", s)
		}
	}
}

func TestInjectExtract(t *testing.T) {
	tr := always()
	ctx, sp := tr.StartRoot(context.Background(), "x", SpanContext{})
	h := http.Header{}
	h.Set(TraceparentHeader, "00-11111111111111111111111111111111-2222222222222222-01")
	Inject(ctx, h) // must replace the copied-through inbound value
	got, ok := Extract(h)
	if !ok || got != sp.Context() {
		t.Fatalf("extract = %+v ok=%v, want %+v", got, ok, sp.Context())
	}
	// Spanless ctx leaves headers untouched.
	h2 := http.Header{}
	h2.Set(TraceparentHeader, "00-11111111111111111111111111111111-2222222222222222-01")
	Inject(context.Background(), h2)
	if h2.Get(TraceparentHeader) != "00-11111111111111111111111111111111-2222222222222222-01" {
		t.Error("spanless Inject modified headers")
	}
	sp.Finish()
}

func TestDoubleFinishIsNoop(t *testing.T) {
	tr := always()
	_, sp := tr.StartRoot(context.Background(), "x", SpanContext{})
	sp.Finish()
	sp.Finish()
	full, _ := tr.Trace(sp.rec.id)
	if len(full.Spans) != 1 {
		t.Fatalf("double finish recorded %d spans", len(full.Spans))
	}
}

// TestConcurrentCapture exercises the sampler, rings, and span mutation
// under -race: many goroutines record overlapping traces while readers list
// and export concurrently.
func TestConcurrentCapture(t *testing.T) {
	tr := New(Config{Service: "race", Sample: 0.5, Slow: time.Nanosecond, RecentCap: 16})
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range tr.Traces(Filter{Limit: 10}) {
					if id, ok := ParseTraceID(s.TraceID); ok {
						tr.Trace(id)
					}
				}
				tr.Exemplars()
			}
		}()
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartRoot(context.Background(), "op", SpanContext{})
				root.SetRoute("op")
				var inner sync.WaitGroup
				for c := 0; c < 3; c++ {
					_, child := StartSpan(ctx, "child")
					inner.Add(1)
					go func(c int) {
						defer inner.Done()
						child.SetAttrs(Int("c", int64(c)), Bool("hedge", c == 2))
						child.SetError(c == 1)
						child.Finish()
					}(c)
				}
				inner.Wait()
				root.Finish()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := len(tr.Traces(Filter{Limit: 1000})); got == 0 {
		t.Fatal("no traces captured")
	}
}
