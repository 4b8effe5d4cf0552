package trace

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// The disabled path is contractually allocation-free: unsampled requests
// must not tax the hot path, and cmd/benchdiff pins these at 0 allocs/op.
func TestDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	if got := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "noop")
		sp.SetAttrs(Str("k", "v"))
		sp.SetError(true)
		sp.Finish()
		_ = c
	}); got != 0 {
		t.Errorf("disabled StartSpan allocs = %v, want 0", got)
	}
	tr := New(Config{Sample: 0})
	if got := testing.AllocsPerRun(1000, func() {
		c, sp := tr.StartRoot(ctx, "noop", SpanContext{})
		sp.Finish()
		_ = c
	}); got != 0 {
		t.Errorf("unsampled StartRoot allocs = %v, want 0", got)
	}
	var nilTracer *Tracer
	if got := testing.AllocsPerRun(1000, func() {
		c, sp := nilTracer.StartRoot(ctx, "noop", SpanContext{})
		sp.Finish()
		_ = c
	}); got != 0 {
		t.Errorf("nil-tracer StartRoot allocs = %v, want 0", got)
	}
	hdr := NewSpanContext(true).Header()
	if got := testing.AllocsPerRun(1000, func() {
		ParseTraceparent(hdr)
	}); got != 0 {
		t.Errorf("ParseTraceparent allocs = %v, want 0", got)
	}
}

// The gated benchmarks (BENCH_trace.txt). The disabled, nil-tracer and
// unsampled paths are the overhead a request pays when tracing is off or
// the head-sampling coin says no; benchdiff's allocs gate holds them at 0.
// BenchmarkSpanStartFinish is the recorded path, and the traceparent pair
// is the per-hop propagation cost the router pays on every proxied request.

func BenchmarkSpanStartFinish(b *testing.B) {
	// Full recorded lifecycle: root + one child per iteration, captured
	// into the rings (retention disabled via an unreachable threshold).
	tr := New(Config{Service: "bench", Sample: 1, Slow: time.Hour, RecentCap: 64})
	bg := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, root := tr.StartRoot(bg, "bench", SpanContext{})
		_, sp := StartSpan(ctx, "op")
		sp.Finish()
		root.Finish()
	}
}

func BenchmarkSpanDisabledNoop(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "op")
		sp.SetAttrs(Str("k", "v"))
		sp.Finish()
	}
}

func BenchmarkSpanNilTracerNoop(b *testing.B) {
	var tr *Tracer
	bg := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := tr.StartRoot(bg, "op", SpanContext{})
		sp.Finish()
	}
}

func BenchmarkSpanUnsampledRoot(b *testing.B) {
	tr := New(Config{Service: "bench", Sample: 0})
	bg := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := tr.StartRoot(bg, "op", SpanContext{})
		sp.Finish()
	}
}

func BenchmarkTraceparentParse(b *testing.B) {
	hdr := NewSpanContext(true).Header()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ParseTraceparent(hdr); !ok {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkTraceparentInject(b *testing.B) {
	tr := New(Config{Service: "bench", Sample: 1, Slow: time.Hour})
	ctx, root := tr.StartRoot(context.Background(), "bench", SpanContext{})
	defer root.Finish()
	h := make(http.Header, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Inject(ctx, h)
	}
}
