// Package trace is a self-contained, dependency-free request-tracing layer
// in the same allocation-conscious style as internal/metrics.
//
// A Tracer owns two fixed-size ring buffers: "recent" receives every sampled
// trace, "retained" additionally keeps traces that errored or ran slower
// than the configured threshold so the interesting tail survives long after
// the recent ring has churned. Sampling is decided once at the root span
// (head sampling); an incoming sampled W3C traceparent forces recording so
// one decision at the edge governs the whole distributed trace.
//
// The disabled path is free by construction: an unsampled request carries no
// span in its context, StartSpan returns a nil *Span, and every Span method
// is nil-receiver safe — no branches at call sites, no allocations.
package trace

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID is a 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is an 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the span ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// SpanContext is the propagated identity of a span: enough to parent remote
// children and to carry the head-sampling decision across processes.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// NewSpanContext returns a fresh random span context with the given sampled
// flag — the entry point for clients (loadgen) that originate traces.
func NewSpanContext(sampled bool) SpanContext {
	return SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: sampled}
}

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (56 - 8*i))
			id[8+i] = byte(lo >> (56 - 8*i))
		}
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (56 - 8*i))
		}
	}
	return id
}

// attrKind discriminates the typed Attr union.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrBool
)

// Attr is a typed key/value annotation on a span. The three constructors
// (Str, Int, Bool) avoid interface boxing on the hot path.
type Attr struct {
	Key  string
	str  string
	num  int64
	kind attrKind
}

// Str returns a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, str: value, kind: attrString} }

// Int returns an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, num: value, kind: attrInt} }

// Bool returns a boolean attribute.
func Bool(key string, value bool) Attr {
	var n int64
	if value {
		n = 1
	}
	return Attr{Key: key, num: n, kind: attrBool}
}

// Value returns the attribute's value as an any — used only at JSON
// rendering time, never on the hot path.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.num
	case attrBool:
		return a.num != 0
	default:
		return a.str
	}
}

// SpanData is the immutable record of a finished (or in-flight) span.
type SpanData struct {
	ID       SpanID
	Parent   SpanID
	Name     string
	Start    time.Time
	Duration time.Duration
	Err      bool
	Attrs    []Attr
}

// traceRec accumulates every span of one locally-recorded trace. The root
// span finalizes it into the rings; spans finishing later (async jobs) still
// append, and can promote an already-finalized trace into the retained ring
// if they are slow or errored.
type traceRec struct {
	tracer *Tracer
	id     TraceID
	start  time.Time

	mu        sync.Mutex
	name      string
	route     string
	tenant    string
	duration  time.Duration
	err       bool
	spans     []SpanData
	finalized bool
	retained  bool
}

// Span is one timed operation within a trace. The zero value of *Span (nil)
// is the disabled span: every method is a no-op, so instrumented code never
// branches on "is tracing on".
type Span struct {
	rec    *traceRec
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	root bool // finalizes the trace on Finish

	mu    sync.Mutex // hedged attempts annotate from racing goroutines
	attrs []Attr
	err   bool
	done  bool
}

// Context returns the span's propagated identity (always sampled: a live
// span exists only on the sampled path). A nil span returns the zero value.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.id, SpanID: s.id, Sampled: true}
}

// TraceID returns the hex trace ID, or "" for a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.id.String()
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// SetError marks the span (and therefore its trace) as failed.
func (s *Span) SetError(err bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// SetRoute records the trace-level route (used by list filters and the
// per-route slow-trace exemplars). Call it on the root span.
func (s *Span) SetRoute(route string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.rec.route = route
	s.rec.mu.Unlock()
}

// SetTenant records the trace-level tenant (used by list filters). Any span
// of the trace may set it — handlers learn the tenant mid-request.
func (s *Span) SetTenant(tenant string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	s.rec.tenant = tenant
	s.rec.mu.Unlock()
	s.SetAttrs(Str("tenant", tenant))
}

// Tenant returns the trace-level tenant recorded so far ("" for a nil span
// or an untagged trace), so log lines can reuse the span's identity fields.
func (s *Span) Tenant() string {
	if s == nil {
		return ""
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return s.rec.tenant
}

// Finish closes the span at time.Now.
func (s *Span) Finish() { s.FinishAt(time.Now()) }

// FinishAt closes the span at the given instant, appends its record to the
// trace, and — when this is the root span — finalizes the trace into the
// tracer's rings. Finishing twice is a no-op.
func (s *Span) FinishAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	data := SpanData{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: end.Sub(s.start),
		Err:      s.err,
		Attrs:    s.attrs,
	}
	s.mu.Unlock()
	if data.Duration < 0 {
		data.Duration = 0
	}

	rec := s.rec
	rec.mu.Lock()
	rec.spans = append(rec.spans, data)
	if data.Err {
		rec.err = true
	}
	if s.root && !rec.finalized {
		rec.duration = data.Duration
		rec.finalized = true
		if rec.err || rec.tracer.isSlow(rec.duration) {
			rec.retained = true
		}
		retain := rec.retained
		rec.mu.Unlock()
		rec.tracer.capture(rec, retain)
		return
	}
	// A late span (async job finishing after the HTTP root returned) can
	// still promote the trace into the retained ring.
	promote := rec.finalized && !rec.retained &&
		(data.Err || rec.tracer.isSlow(data.Duration))
	if promote {
		rec.retained = true
	}
	rec.mu.Unlock()
	if promote {
		rec.tracer.retainLate(rec)
	}
}

// ctxKey is the private context key for the active span.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span. A nil span
// returns ctx unchanged so the disabled path stays allocation-free.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the active span, or nil when the request is not being
// recorded. The nil result is safe to use directly.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan opens a child of the active span in ctx. When ctx carries no
// span (tracing disabled or the trace unsampled) it returns (ctx, nil) with
// zero allocations.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{rec: parent.rec, id: newSpanID(), parent: parent.id, name: name, start: time.Now()}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Config parameterizes a Tracer.
type Config struct {
	// Service names this process in span JSON ("router", "shard-a") so a
	// merged cross-process tree stays attributable.
	Service string
	// Sample is the head-sampling probability in [0,1] applied to requests
	// that arrive without a traceparent. Incoming sampled contexts bypass it.
	Sample float64
	// Slow is the tail-retention threshold: finished traces at least this
	// slow are always kept. Zero disables the slow criterion.
	Slow time.Duration
	// RecentCap bounds the ring of recent traces (default 256). Slow and
	// error traces are also kept in a second ring of 64.
	RecentCap int
}

// retainedCap bounds the ring of slow and error traces, which keeps them
// through churn in the recent ring.
const retainedCap = 64

// Tracer decides sampling, records traces, and serves them for inspection.
// A nil *Tracer is valid and disables tracing entirely.
type Tracer struct {
	service  string
	sample   float64
	slow     time.Duration
	recent   ring
	retained ring
}

// New returns a Tracer for the given config.
func New(cfg Config) *Tracer {
	if cfg.RecentCap <= 0 {
		cfg.RecentCap = 256
	}
	if cfg.Sample < 0 {
		cfg.Sample = 0
	}
	if cfg.Sample > 1 {
		cfg.Sample = 1
	}
	return &Tracer{
		service:  cfg.Service,
		sample:   cfg.Sample,
		slow:     cfg.Slow,
		recent:   ring{buf: make([]*traceRec, cfg.RecentCap)},
		retained: ring{buf: make([]*traceRec, retainedCap)},
	}
}

func (t *Tracer) isSlow(d time.Duration) bool {
	return t != nil && t.slow > 0 && d >= t.slow
}

// StartRoot opens the root span of a trace. parent is the extracted remote
// context (zero value when the request arrived without one): a valid
// sampled parent forces recording and parents the new span under it so the
// cross-process tree links up; a valid unsampled parent suppresses local
// head sampling so the edge's decision wins. A nil tracer, or an unsampled
// outcome, returns (ctx, nil).
func (t *Tracer) StartRoot(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var traceID TraceID
	var parentID SpanID
	switch {
	case parent.Valid() && parent.Sampled:
		traceID, parentID = parent.TraceID, parent.SpanID
	case parent.Valid():
		return ctx, nil // edge decided not to sample
	case t.sample >= 1:
		traceID = newTraceID()
	case t.sample <= 0 || rand.Float64() >= t.sample:
		return ctx, nil
	default:
		traceID = newTraceID()
	}
	now := time.Now()
	rec := &traceRec{tracer: t, id: traceID, start: now, name: name}
	// A remote-parented root is still "the root" locally — it finalizes the
	// record on Finish; the parent link just ties the processes together.
	sp := &Span{rec: rec, id: newSpanID(), parent: parentID, name: name, start: now, root: true}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// capture files a finalized trace into the rings.
func (t *Tracer) capture(rec *traceRec, retain bool) {
	t.recent.add(rec)
	if retain {
		t.retained.add(rec)
	}
}

func (t *Tracer) retainLate(rec *traceRec) { t.retained.add(rec) }

// held returns every record the rings still hold, retained ring first and
// each newest-first; a record in both rings appears twice.
func (t *Tracer) held() []*traceRec {
	return append(t.retained.snapshot(), t.recent.snapshot()...)
}

// ring is a fixed-size overwrite-oldest buffer of trace records.
type ring struct {
	mu   sync.Mutex
	buf  []*traceRec
	next int
	n    int // total ever added, saturating at len(buf)
}

func (r *ring) add(rec *traceRec) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// snapshot returns the ring's records newest-first.
func (r *ring) snapshot() []*traceRec {
	r.mu.Lock()
	out := make([]*traceRec, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	r.mu.Unlock()
	return out
}
