package service

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// routeMetrics is one route's instrument handles. Each registered route
// pre-resolves its latency histogram at Handler() time and caches its
// per-status counters in a sync.Map, so the per-request record path is two
// atomic bumps, a histogram observe and (warm) one lock-free map load — no
// label rendering and no registry lookups.
type routeMetrics struct {
	reg   *metrics.Registry
	route string
	hist  *metrics.Histogram
	codes sync.Map // int status -> *metrics.Counter
}

func newRouteMetrics(reg *metrics.Registry, pattern string) *routeMetrics {
	return &routeMetrics{
		reg:   reg,
		route: pattern,
		hist: reg.Histogram("http_request_duration_seconds",
			"HTTP request latency by route.", metrics.DefBuckets, metrics.L("route", pattern)),
	}
}

func (rm *routeMetrics) counterFor(status int) *metrics.Counter {
	if c, ok := rm.codes.Load(status); ok {
		return c.(*metrics.Counter)
	}
	c := rm.reg.Counter("http_requests_total", "HTTP requests by route and status code.",
		metrics.L("route", rm.route), metrics.L("code", strconv.Itoa(status)))
	actual, _ := rm.codes.LoadOrStore(status, c)
	return actual.(*metrics.Counter)
}

// statusRecorder captures the response status for the request counter.
// Handlers that never call WriteHeader implicitly answer 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// TraceIDHeader names the response header echoing the request's trace ID
// when the request was sampled — the handle a client quotes to pull the
// full tree from /v1/traces/{id}.
const TraceIDHeader = trace.IDHeader

// instrument wraps a handler with the route's request counter and latency
// histogram, and — when tracing is enabled — a root span extracted from (or
// seeding) the request's W3C traceparent.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	rm := newRouteMetrics(s.reg, pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		// A sampled inbound traceparent (from the router or a client) forces
		// recording and parents this process's root span under the caller's;
		// otherwise the tracer head-samples. Nil tracer / unsampled → sp nil
		// and the request runs span-free at zero cost.
		parent, _ := trace.Extract(r.Header)
		ctx, sp := s.tracer.StartRoot(r.Context(), pattern, parent)
		if sp != nil {
			sp.SetRoute(pattern)
			sp.SetAttrs(trace.Str("method", r.Method), trace.Str("path", r.URL.Path))
			if s.shardID != "" {
				sp.SetAttrs(trace.Str("shard", s.shardID))
			}
			w.Header().Set(TraceIDHeader, sp.TraceID())
			r = r.WithContext(ctx)
		}
		s.inflight.Add(1)
		// Deferred so a panicking handler (net/http recovers it per
		// connection) still decrements the in-flight gauge and records the
		// request — otherwise each panic drifts the gauge up permanently.
		defer func() {
			elapsed := time.Since(start)
			s.inflight.Add(-1)
			rm.hist.Observe(elapsed.Seconds())
			rm.counterFor(rec.status).Inc()
			if sp != nil {
				sp.SetAttrs(trace.Int("status", int64(rec.status)))
				sp.SetError(rec.status >= http.StatusInternalServerError)
				sp.Finish()
			}
			if rec.status >= http.StatusInternalServerError {
				slog.Warn("request failed",
					"route", pattern, "status", rec.status,
					"duration_ms", float64(elapsed)/1e6,
					"shard", s.shardID, "tenant", sp.Tenant(),
					"trace_id", sp.TraceID())
			}
		}()
		h(rec, r)
	}
}
