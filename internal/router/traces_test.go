package router

// Cross-process trace propagation through the proxy tier: one trace ID from
// client traceparent through retries, hedges and adopt-on-miss; attempt
// spans parent the shard side; /v1/traces/{id} merges shard span trees.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// captureBackend records the traceparent of every request it serves and can
// impersonate a shard's /v1/traces/{id} endpoint for the merge test.
type captureBackend struct {
	srv  *httptest.Server
	addr string
	id   string

	mu      sync.Mutex
	parents []trace.SpanContext // decoded traceparent per request, zero if absent
	delayMu sync.Mutex
	delay   time.Duration
}

func newCapture(t *testing.T, id string) *captureBackend {
	t.Helper()
	b := &captureBackend{id: id}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc, _ := trace.Extract(r.Header)
		b.mu.Lock()
		b.parents = append(b.parents, sc)
		b.mu.Unlock()
		// A traced shard stamps the trace ID on its response; mimic that so
		// the router's dedup of the doubled header is observable.
		if sc.Sampled {
			w.Header().Set(trace.IDHeader, sc.TraceID.String())
		}
		b.delayMu.Lock()
		d := b.delay
		b.delayMu.Unlock()
		if d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		json.NewEncoder(w).Encode(map[string]string{"shard": b.id})
	}))
	b.addr = strings.TrimPrefix(b.srv.URL, "http://")
	t.Cleanup(b.srv.Close)
	return b
}

func (b *captureBackend) setDelay(d time.Duration) {
	b.delayMu.Lock()
	b.delay = d
	b.delayMu.Unlock()
}

func (b *captureBackend) seen() []trace.SpanContext {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]trace.SpanContext(nil), b.parents...)
}

func alwaysTracer(service string) *trace.Tracer {
	return trace.New(trace.Config{Service: service, Sample: 1, Slow: time.Hour})
}

// fetchTrace pulls the merged span tree for id from the router front.
func fetchTrace(t *testing.T, front, id string) trace.TraceJSON {
	t.Helper()
	resp, err := http.Get(front + "/v1/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/traces/%s = %d: %s", id, resp.StatusCode, raw)
	}
	var tj trace.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		t.Fatal(err)
	}
	return tj
}

func spansNamed(tj trace.TraceJSON, name string) []trace.SpanJSON {
	var out []trace.SpanJSON
	for _, s := range tj.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestTraceparentPropagation: the client's sampled trace ID survives the
// proxy hop, the shard sees an attempt span (not the client span) as its
// parent, and the router's tree nests proxy.attempt under the proxy root.
func TestTraceparentPropagation(t *testing.T) {
	a, b := newCapture(t, "a"), newCapture(t, "b")
	rt := newTestRouter(t, Config{
		Shards: []string{a.addr, b.addr}, HedgeAfter: -1, Tracer: alwaysTracer("router"),
	})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	client := trace.NewSpanContext(true)
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/databases/traced-tenant", nil)
	req.Header.Set(trace.TraceparentHeader, client.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if got := resp.Header.Get(trace.IDHeader); got != client.TraceID.String() {
		t.Fatalf("%s = %q, want the client trace id %q", trace.IDHeader, got, client.TraceID.String())
	}
	// The shard stamps the same ID; the router must drop that copy rather
	// than emit the header twice.
	if n := len(resp.Header.Values(trace.IDHeader)); n != 1 {
		t.Errorf("%s appears %d times, want once", trace.IDHeader, n)
	}
	all := append(a.seen(), b.seen()...)
	if len(all) != 1 {
		t.Fatalf("backends served %d requests, want 1", len(all))
	}
	up := all[0]
	if !up.Valid() || !up.Sampled {
		t.Fatalf("upstream traceparent invalid or unsampled: %+v", up)
	}
	if up.TraceID != client.TraceID {
		t.Errorf("upstream trace id %s, want the client's %s", up.TraceID.String(), client.TraceID.String())
	}
	if up.SpanID == client.SpanID {
		t.Error("upstream parent span is the client span; want the router's attempt span")
	}

	tj := fetchTrace(t, front.URL, client.TraceID.String())
	roots := spansNamed(tj, "proxy")
	attempts := spansNamed(tj, "proxy.attempt")
	if len(roots) != 1 || len(attempts) != 1 {
		t.Fatalf("trace has %d proxy roots and %d attempts, want 1 and 1: %+v", len(roots), len(attempts), tj.Spans)
	}
	if roots[0].ParentID != client.SpanID.String() {
		t.Errorf("root parent = %q, want the client span %q", roots[0].ParentID, client.SpanID.String())
	}
	if attempts[0].ParentID != roots[0].SpanID {
		t.Errorf("attempt parent = %q, want the root span %q", attempts[0].ParentID, roots[0].SpanID)
	}
	if up.SpanID.String() != attempts[0].SpanID {
		t.Errorf("shard saw parent %q, want the attempt span %q", up.SpanID.String(), attempts[0].SpanID)
	}
}

// TestTraceRetryWalk: a transport error burns an attempt span marked error
// and the retry reaches the survivor under the same trace.
func TestTraceRetryWalk(t *testing.T) {
	alive := newCapture(t, "alive")
	dead := deadAddr(t)
	rt := newTestRouter(t, Config{
		Shards: []string{alive.addr, dead}, HedgeAfter: -1, Tracer: alwaysTracer("router"),
	})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	key := tenantOn(t, rt.tab.Load().ring, dead)
	client := trace.NewSpanContext(true)
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/databases/"+key, nil)
	req.Header.Set(trace.TraceparentHeader, client.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry walk answered %d, want 200", resp.StatusCode)
	}

	seen := alive.seen()
	if len(seen) != 1 || seen[0].TraceID != client.TraceID {
		t.Fatalf("survivor saw %d requests (trace match=%v), want 1 under the client trace",
			len(seen), len(seen) > 0 && seen[0].TraceID == client.TraceID)
	}
	tj := fetchTrace(t, front.URL, client.TraceID.String())
	attempts := spansNamed(tj, "proxy.attempt")
	if len(attempts) != 2 {
		t.Fatalf("retry walk recorded %d attempt spans, want 2", len(attempts))
	}
	var failed, won int
	for _, sp := range attempts {
		if sp.Error {
			failed++
		} else if sp.Attrs["status"] == float64(http.StatusOK) {
			won++
		}
	}
	if failed != 1 || won != 1 {
		t.Errorf("attempts = %d failed / %d ok, want 1/1: %+v", failed, won, attempts)
	}
}

// TestTraceHedgeSiblings: the hedged duplicate is a sibling attempt span
// tagged hedge=true and the root records the hedge outcome.
func TestTraceHedgeSiblings(t *testing.T) {
	a, b := newCapture(t, "a"), newCapture(t, "b")
	byAddr := map[string]*captureBackend{a.addr: a, b.addr: b}
	rt := newTestRouter(t, Config{
		Shards: []string{a.addr, b.addr}, HedgeAfter: 15 * time.Millisecond, Tracer: alwaysTracer("router"),
	})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const key = "hedged-tenant"
	primary, _ := rt.tab.Load().ring.Lookup2(key)
	byAddr[primary].setDelay(400 * time.Millisecond)

	client := trace.NewSpanContext(true)
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/databases/"+key, nil)
	req.Header.Set(trace.TraceparentHeader, client.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request answered %d, want 200", resp.StatusCode)
	}

	// A hedge win cancels the primary attempt without waiting for it, so
	// its span can join the trace after the response: wait for it.
	var tj trace.TraceJSON
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tj = fetchTrace(t, front.URL, client.TraceID.String())
		if len(spansNamed(tj, "proxy.attempt")) >= 2 || time.Now().After(deadline) {
			break
		}
	}
	roots := spansNamed(tj, "proxy")
	attempts := spansNamed(tj, "proxy.attempt")
	if len(roots) != 1 || len(attempts) != 2 {
		t.Fatalf("trace has %d roots / %d attempts, want 1/2: %+v", len(roots), len(attempts), tj.Spans)
	}
	var hedged, plain int
	for _, sp := range attempts {
		if sp.ParentID != roots[0].SpanID {
			t.Errorf("attempt %s parent %q is not the root %q (hedge must be a sibling)",
				sp.SpanID, sp.ParentID, roots[0].SpanID)
		}
		if sp.Attrs["hedge"] == true {
			hedged++
		} else {
			plain++
		}
	}
	if hedged != 1 || plain != 1 {
		t.Errorf("attempts = %d hedged / %d plain, want 1/1", hedged, plain)
	}
	if got := roots[0].Attrs["hedge_outcome"]; got != "win" {
		t.Errorf("root hedge_outcome = %v, want win", got)
	}
}

// TestTraceAdoptOnMiss: the adopt hand-off and its replay both land in the
// request's trace — a proxy.adopt span with ok=true plus a replay attempt.
func TestTraceAdoptOnMiss(t *testing.T) {
	var mu sync.Mutex
	adopted := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/databases/pets/adopt":
			adopted = true
			json.NewEncoder(w).Encode(map[string]string{"state": "ready"})
		case r.URL.Path == "/v1/databases/pets" && adopted:
			json.NewEncoder(w).Encode(map[string]string{"shard": "s0"})
		default:
			http.Error(w, "unknown database", http.StatusNotFound)
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	rt := newTestRouter(t, Config{Shards: []string{addr}, HedgeAfter: -1, Tracer: alwaysTracer("router")})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	client := trace.NewSpanContext(true)
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/databases/pets", nil)
	req.Header.Set(trace.TraceparentHeader, client.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopt-on-miss answered %d, want 200", resp.StatusCode)
	}

	tj := fetchTrace(t, front.URL, client.TraceID.String())
	adopts := spansNamed(tj, "proxy.adopt")
	if len(adopts) != 1 || adopts[0].Attrs["ok"] != true {
		t.Fatalf("proxy.adopt spans = %+v, want exactly one with ok=true", adopts)
	}
	var replayed bool
	for _, sp := range spansNamed(tj, "proxy.attempt") {
		if sp.Attrs["adopt_replay"] == true {
			replayed = true
		}
	}
	if !replayed {
		t.Error("no attempt span tagged adopt_replay=true")
	}
}

// TestTraceMergeAcrossShards: /v1/traces/{id} folds a shard's span tree
// into the router's, keeping each span's service attribution.
func TestTraceMergeAcrossShards(t *testing.T) {
	shardTraces := map[string]trace.TraceJSON{}
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/traces/") {
			mu.Lock()
			tj, ok := shardTraces[strings.TrimPrefix(r.URL.Path, "/v1/traces/")]
			mu.Unlock()
			if !ok {
				http.Error(w, "unknown trace", http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(tj)
			return
		}
		// Serving path: record what a shard-side tracer would have captured
		// for this request so the later merge has something to find.
		if sc, ok := trace.Extract(r.Header); ok && sc.Sampled {
			mu.Lock()
			shardTraces[sc.TraceID.String()] = trace.TraceJSON{
				TraceID: sc.TraceID.String(),
				Name:    "/v1/translate",
				Spans: []trace.SpanJSON{{
					SpanID:   "aaaaaaaaaaaaaaaa",
					ParentID: sc.SpanID.String(),
					Service:  "shard:test",
					Name:     "/v1/translate",
				}},
			}
			mu.Unlock()
		}
		json.NewEncoder(w).Encode(map[string]string{"shard": "s0"})
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	rt := newTestRouter(t, Config{Shards: []string{addr}, HedgeAfter: -1, Tracer: alwaysTracer("router")})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	client := trace.NewSpanContext(true)
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/translate",
		strings.NewReader(`{"database":"merged","question":"q"}`))
	req.Header.Set(trace.TraceparentHeader, client.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	tj := fetchTrace(t, front.URL, client.TraceID.String())
	var routerSpans, shardSpans int
	for _, sp := range tj.Spans {
		switch sp.Service {
		case "router":
			routerSpans++
		case "shard:test":
			shardSpans++
		}
	}
	if routerSpans < 2 || shardSpans != 1 {
		t.Fatalf("merged tree has %d router spans and %d shard spans, want >=2 and 1: %+v",
			routerSpans, shardSpans, tj.Spans)
	}
	// The shard span's parent must be one of the router's attempt spans.
	attempts := map[string]bool{}
	for _, sp := range spansNamed(tj, "proxy.attempt") {
		attempts[sp.SpanID] = true
	}
	for _, sp := range tj.Spans {
		if sp.Service == "shard:test" && !attempts[sp.ParentID] {
			t.Errorf("shard span parent %q is not a router attempt span", sp.ParentID)
		}
	}
}

// TestTracesDisabledProxiesThrough: with no Tracer the router must not
// shadow /v1/traces — the request proxies to a shard like any other GET.
func TestTracesDisabledProxiesThrough(t *testing.T) {
	a := newCapture(t, "a")
	rt := newTestRouter(t, Config{Shards: []string{a.addr}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if len(a.seen()) != 1 {
		t.Fatalf("tracerless router served /v1/traces itself; want it proxied to the shard")
	}
}
