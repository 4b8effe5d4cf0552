package trace

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"
)

// Link is a detached handle on a live trace, letting asynchronous work
// (queued jobs) open spans after the originating request's context is gone —
// including spans with explicit start times in the past, such as a
// queue-wait measured from submission to first run.
type Link struct {
	rec    *traceRec
	parent SpanID
}

// LinkFromContext captures the active span as a link; the zero Link (no
// active span) is inert and all its methods no-op.
func LinkFromContext(ctx context.Context) Link {
	sp := FromContext(ctx)
	if sp == nil {
		return Link{}
	}
	return Link{rec: sp.rec, parent: sp.id}
}

// Active reports whether the link points at a recorded trace.
func (l Link) Active() bool { return l.rec != nil }

// Span opens a child span under the link with an explicit start time.
func (l Link) Span(name string, start time.Time) *Span {
	if l.rec == nil {
		return nil
	}
	return &Span{rec: l.rec, id: newSpanID(), parent: l.parent, name: name, start: start}
}

// SpanJSON is the wire form of one span in a trace tree.
type SpanJSON struct {
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_span_id,omitempty"`
	Service    string         `json:"service,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"duration_ms"`
	Error      bool           `json:"error,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// TraceJSON is the wire form of a full trace.
type TraceJSON struct {
	TraceID    string     `json:"trace_id"`
	Name       string     `json:"name"`
	Route      string     `json:"route,omitempty"`
	Tenant     string     `json:"tenant,omitempty"`
	Start      time.Time  `json:"start"`
	DurationMs float64    `json:"duration_ms"`
	Error      bool       `json:"error,omitempty"`
	Retained   bool       `json:"retained,omitempty"`
	Spans      []SpanJSON `json:"spans"`
}

// Summary is the wire form of one /v1/traces list row.
type Summary struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Route      string    `json:"route,omitempty"`
	Tenant     string    `json:"tenant,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Error      bool      `json:"error,omitempty"`
	Retained   bool      `json:"retained,omitempty"`
	Spans      int       `json:"spans"`
}

// Filter selects traces in Traces listings; zero values match everything.
type Filter struct {
	Route       string
	Tenant      string
	MinDuration time.Duration
	ErrorsOnly  bool
	Limit       int
}

// FilterFromQuery parses the shared /v1/traces query parameters — route,
// tenant, min_ms (minimum duration in milliseconds), errors (true/1 for
// errors only), limit — so every process exposing the endpoint (shard and
// router alike) accepts the same dialect.
func FilterFromQuery(q url.Values) (Filter, error) {
	f := Filter{
		Route:      q.Get("route"),
		Tenant:     q.Get("tenant"),
		ErrorsOnly: q.Get("errors") == "true" || q.Get("errors") == "1",
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return f, err
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return f, err
		}
		f.Limit = n
	}
	return f, nil
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// summary snapshots a record's trace-level fields under its lock.
func (rec *traceRec) summary() Summary {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return Summary{
		TraceID:    rec.id.String(),
		Name:       rec.name,
		Route:      rec.route,
		Tenant:     rec.tenant,
		Start:      rec.start,
		DurationMs: durMs(rec.duration),
		Error:      rec.err,
		Retained:   rec.retained,
		Spans:      len(rec.spans),
	}
}

// export renders the full span tree, spans ordered by start time, stamping
// each span with the owning process's service name.
func (rec *traceRec) export(service string) TraceJSON {
	rec.mu.Lock()
	spans := make([]SpanData, len(rec.spans))
	copy(spans, rec.spans)
	out := TraceJSON{
		TraceID:    rec.id.String(),
		Name:       rec.name,
		Route:      rec.route,
		Tenant:     rec.tenant,
		Start:      rec.start,
		DurationMs: durMs(rec.duration),
		Error:      rec.err,
		Retained:   rec.retained,
	}
	rec.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	out.Spans = make([]SpanJSON, len(spans))
	for i, sd := range spans {
		sj := SpanJSON{
			SpanID:     sd.ID.String(),
			Service:    service,
			Name:       sd.Name,
			Start:      sd.Start,
			DurationMs: durMs(sd.Duration),
			Error:      sd.Err,
		}
		if !sd.Parent.IsZero() {
			sj.ParentID = sd.Parent.String()
		}
		if len(sd.Attrs) > 0 {
			sj.Attrs = make(map[string]any, len(sd.Attrs))
			for _, a := range sd.Attrs {
				sj.Attrs[a.Key] = a.Value()
			}
		}
		out.Spans[i] = sj
	}
	return out
}

// Traces lists captured traces newest-first: the retained ring (errors and
// slow traces) first, then the rest of the recent ring, deduplicated.
func (t *Tracer) Traces(f Filter) []Summary {
	if t == nil {
		return nil
	}
	if f.Limit <= 0 {
		f.Limit = 100
	}
	seen := make(map[TraceID]bool)
	var out []Summary
	for _, rec := range t.held() {
		if rec == nil || seen[rec.id] {
			continue
		}
		seen[rec.id] = true
		s := rec.summary()
		if f.Route != "" && s.Route != f.Route {
			continue
		}
		if f.Tenant != "" && s.Tenant != f.Tenant {
			continue
		}
		if f.MinDuration > 0 && s.DurationMs < durMs(f.MinDuration) {
			continue
		}
		if f.ErrorsOnly && !s.Error {
			continue
		}
		out = append(out, s)
		if len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Trace returns the full span tree for one trace ID.
func (t *Tracer) Trace(id TraceID) (TraceJSON, bool) {
	if t == nil {
		return TraceJSON{}, false
	}
	for _, rec := range t.held() {
		if rec != nil && rec.id == id {
			return rec.export(t.service), true
		}
	}
	return TraceJSON{}, false
}

// Exemplar links a route's latency to one concrete request worth pulling
// from /v1/traces/{id}: the slowest trace on that route the rings still hold.
type Exemplar struct {
	TraceID    string  `json:"trace_id"`
	DurationMs float64 `json:"duration_ms"`
}

// Exemplars returns the per-route slowest held trace. It is computed at read
// time from the rings, so every exemplar resolves on Trace until the rings
// churn past it, and the route set is bounded by the ring capacity.
func (t *Tracer) Exemplars() map[string]Exemplar {
	if t == nil {
		return nil
	}
	out := map[string]Exemplar{}
	for _, rec := range t.held() {
		s := rec.summary()
		if s.Route == "" {
			continue
		}
		if ex, ok := out[s.Route]; !ok || s.DurationMs > ex.DurationMs {
			out[s.Route] = Exemplar{TraceID: s.TraceID, DurationMs: s.DurationMs}
		}
	}
	return out
}

// ListResponse is the GET /v1/traces body: filtered newest-first summaries,
// retained (slow/error) traces ahead of the recent ring, plus the unfiltered
// per-route exemplars.
type ListResponse struct {
	Service   string              `json:"service"`
	Traces    []Summary           `json:"traces"`
	Exemplars map[string]Exemplar `json:"exemplars"`
}

// ServeList is the GET /v1/traces handler shared by shard and router. The
// query string takes the FilterFromQuery dialect; a malformed filter is a
// 400. Listing is local to the process: the router samples every request it
// proxies, so its list indexes the topology, and the by-ID lookup fans out.
func (t *Tracer) ServeList(w http.ResponseWriter, r *http.Request) {
	f, err := FilterFromQuery(r.URL.Query())
	if err != nil {
		http.Error(w, "bad filter: "+err.Error(), http.StatusBadRequest)
		return
	}
	out := ListResponse{Service: t.Service(), Traces: t.Traces(f), Exemplars: t.Exemplars()}
	if out.Traces == nil {
		out.Traces = []Summary{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// Service returns the tracer's configured service name ("" for nil).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}
