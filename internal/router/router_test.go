package router

// Proxy-tier behavior: ring-consistent routing, body sniffing, retry on
// connection errors, tail hedging (win, and 404-hold loss), health-probe
// ejection/readmission, register-on-miss adoption, and the metrics surface.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// echoBackend is a stand-in shard: it answers every path with its identity,
// optionally after a configurable delay (for hedging tests).
type echoBackend struct {
	srv   *httptest.Server
	addr  string
	id    string
	delay atomic.Int64 // nanoseconds
	hits  atomic.Int64
}

func newEcho(t *testing.T, id string) *echoBackend {
	t.Helper()
	b := &echoBackend{id: id}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.hits.Add(1)
		if got := r.Header.Get(ShardHeader); got != "" {
			t.Errorf("shard header leaked upstream: %q", got)
		}
		if d := time.Duration(b.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"shard": b.id, "path": r.URL.Path})
	}))
	b.addr = strings.TrimPrefix(b.srv.URL, "http://")
	t.Cleanup(b.srv.Close)
	return b
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // tests drive CheckNow deterministically
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// get issues a request through the router front and decodes the echo reply.
func get(t *testing.T, front, path string) (shard string, resp *http.Response) {
	t.Helper()
	r, err := http.Get(front + path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var body struct {
		Shard string `json:"shard"`
	}
	raw, _ := io.ReadAll(r.Body)
	json.Unmarshal(raw, &body)
	return body.Shard, r
}

func TestProxyRoutesByTenant(t *testing.T) {
	a, b := newEcho(t, "a"), newEcho(t, "b")
	byAddr := map[string]string{a.addr: "a", b.addr: "b"}
	rt := newTestRouter(t, Config{Shards: []string{a.addr, b.addr}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	ring := rt.tab.Load().ring
	for i := 0; i < 10; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		want := byAddr[primary(ring, tenant)]
		for rep := 0; rep < 3; rep++ {
			shard, resp := get(t, front.URL, "/v1/databases/"+tenant)
			if shard != want {
				t.Fatalf("tenant %s went to %s, ring places it on %s", tenant, shard, want)
			}
			if got := resp.Header.Get(ShardHeader); got != primary(ring, tenant) {
				t.Errorf("response %s = %q, want target addr %q", ShardHeader, got, primary(ring, tenant))
			}
		}
	}
}

func TestProxyBodySniffAgreesWithPath(t *testing.T) {
	a, b := newEcho(t, "a"), newEcho(t, "b")
	rt := newTestRouter(t, Config{Shards: []string{a.addr, b.addr}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for i := 0; i < 8; i++ {
		tenant := fmt.Sprintf("sniff-%d", i)
		pathShard, _ := get(t, front.URL, "/v1/databases/"+tenant)
		body, _ := json.Marshal(map[string]string{"database": tenant, "question": "hi"})
		resp, err := http.Post(front.URL+"/v1/translate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var echo struct {
			Shard string `json:"shard"`
		}
		json.NewDecoder(resp.Body).Decode(&echo)
		resp.Body.Close()
		if echo.Shard != pathShard {
			t.Fatalf("tenant %s: body-sniffed POST went to %s, path-keyed GET to %s", tenant, echo.Shard, pathShard)
		}
	}
}

// deadAddr reserves an address and closes it, yielding connection-refused.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// tenantOn finds a key the ring places on the wanted primary.
func tenantOn(t *testing.T, ring *Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("pick-%d", i)
		if primary(ring, k) == owner {
			return k
		}
	}
	t.Fatal("no key maps to the wanted shard")
	return ""
}

func TestRetryOnConnectionError(t *testing.T) {
	alive := newEcho(t, "alive")
	dead := deadAddr(t)
	rt := newTestRouter(t, Config{Shards: []string{alive.addr, dead}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	key := tenantOn(t, rt.tab.Load().ring, dead)
	shard, resp := get(t, front.URL, "/v1/databases/"+key)
	if resp.StatusCode != http.StatusOK || shard != "alive" {
		t.Fatalf("request keyed to the dead shard: status %d from %q, want 200 from alive", resp.StatusCode, shard)
	}
	if got := rt.mRetries.Value(); got < 1 {
		t.Errorf("router_retries_total = %v, want >= 1", got)
	}
}

func TestHedgeWinsOnSlowPrimary(t *testing.T) {
	a, b := newEcho(t, "a"), newEcho(t, "b")
	byAddr := map[string]*echoBackend{a.addr: a, b.addr: b}
	rt := newTestRouter(t, Config{Shards: []string{a.addr, b.addr}, HedgeAfter: 20 * time.Millisecond})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const key = "hedge-me"
	primary, successor := rt.tab.Load().ring.Lookup2(key)
	byAddr[primary].delay.Store(int64(400 * time.Millisecond))

	start := time.Now()
	shard, resp := get(t, front.URL, "/v1/databases/"+key)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK || shard != byAddr[successor].id {
		t.Fatalf("hedged request: status %d from %q, want 200 from successor %q", resp.StatusCode, shard, byAddr[successor].id)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("hedged request took %v, the slow primary's full latency", elapsed)
	}
	if rt.mHedges.Value() < 1 || rt.mHedgeWin.Value() < 1 {
		t.Errorf("hedge counters: fired=%v wins=%v, want both >= 1", rt.mHedges.Value(), rt.mHedgeWin.Value())
	}
}

// TestHedge404WaitsForPrimary: the replica successor answering 404 must not
// preempt a primary that actually hosts the tenant.
func TestHedge404WaitsForPrimary(t *testing.T) {
	const key = "held-tenant"
	var backends []*echoBackend
	mk := func(id string) *echoBackend {
		b := &echoBackend{id: id}
		b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b.hits.Add(1)
			if d := time.Duration(b.delay.Load()); d > 0 {
				time.Sleep(d)
			}
			if b.delay.Load() == 0 {
				// The fast replica does not host the tenant.
				http.Error(w, "unknown database", http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(map[string]string{"shard": b.id})
		}))
		b.addr = strings.TrimPrefix(b.srv.URL, "http://")
		t.Cleanup(b.srv.Close)
		backends = append(backends, b)
		return b
	}
	a, b := mk("a"), mk("b")
	byAddr := map[string]*echoBackend{a.addr: a, b.addr: b}
	rt := newTestRouter(t, Config{Shards: []string{a.addr, b.addr}, HedgeAfter: 10 * time.Millisecond})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	primary, _ := rt.tab.Load().ring.Lookup2(key)
	byAddr[primary].delay.Store(int64(120 * time.Millisecond))

	shard, resp := get(t, front.URL, "/v1/databases/"+key)
	if resp.StatusCode != http.StatusOK || shard != byAddr[primary].id {
		t.Fatalf("got status %d from %q, want the slow primary's 200 (hedge 404 must be held)", resp.StatusCode, shard)
	}
	if rt.mHedgeLos.Value() < 1 {
		t.Errorf("router_hedge_losses_total = %v, want >= 1", rt.mHedgeLos.Value())
	}
}

func TestEjectionAndReadmission(t *testing.T) {
	alive := newEcho(t, "alive")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flappyAddr := l.Addr().String()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"shard": "flappy"})
	})
	srv := &http.Server{Handler: h}
	go srv.Serve(l)

	rt := newTestRouter(t, Config{Shards: []string{alive.addr, flappyAddr}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	ctx := t.Context()

	if got := len(rt.tab.Load().ring.Shards()); got != 2 {
		t.Fatalf("healthy shards at boot = %d, want 2", got)
	}
	epoch0 := rt.tab.Load().epoch

	srv.Close()
	rt.CheckNow(ctx)
	if got := len(rt.tab.Load().ring.Shards()); got != 2 {
		t.Fatalf("one failed probe ejected the shard (healthy = %d); threshold is %d", got, ejectThreshold)
	}
	// Mid-ejection-window traffic keyed to the down shard still succeeds via
	// retry — the zero-failed-requests guarantee across a shard kill.
	key := tenantOn(t, rt.tab.Load().ring, flappyAddr)
	if shard, resp := get(t, front.URL, "/v1/databases/"+key); resp.StatusCode != http.StatusOK || shard != "alive" {
		t.Fatalf("request during ejection window: status %d from %q", resp.StatusCode, shard)
	}

	rt.CheckNow(ctx)
	if got := rt.tab.Load().ring.Shards(); len(got) != 1 || got[0] != alive.addr {
		t.Fatalf("after %d failed probes healthy = %v, want [%s]", ejectThreshold, got, alive.addr)
	}
	if rt.tab.Load().epoch == epoch0 {
		t.Error("ejection did not bump the table epoch")
	}
	if rt.mEject.Value() != 1 {
		t.Errorf("router_ejections_total = %v, want 1", rt.mEject.Value())
	}
	if n := healthyShards(rt.Status()); n != 1 {
		t.Errorf("status reports %d healthy shards, want 1", n)
	}

	// Restart on the same address; one passing probe readmits.
	l2, err := net.Listen("tcp", flappyAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", flappyAddr, err)
	}
	srv2 := &http.Server{Handler: h}
	go srv2.Serve(l2)
	defer srv2.Close()
	rt.CheckNow(ctx)
	if got := len(rt.tab.Load().ring.Shards()); got != 2 {
		t.Fatalf("healthy after restart = %d, want 2 (readmit after one pass)", got)
	}
	if rt.mReadmit.Value() != 1 {
		t.Errorf("router_readmissions_total = %v, want 1", rt.mReadmit.Value())
	}
	if shard, resp := get(t, front.URL, "/v1/databases/"+key); resp.StatusCode != http.StatusOK || shard != "flappy" {
		t.Fatalf("after readmission: status %d from %q, want flappy again", resp.StatusCode, shard)
	}
}

func TestAdoptOnMiss(t *testing.T) {
	var adopted atomic.Bool
	var adoptPosts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/databases/pets/adopt":
			adoptPosts.Add(1)
			adopted.Store(true)
			json.NewEncoder(w).Encode(map[string]string{"state": "ready"})
		case r.URL.Path == "/v1/databases/pets":
			if !adopted.Load() {
				http.Error(w, "unknown database", http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(map[string]string{"shard": "s0", "state": "ready"})
		default:
			http.Error(w, "unknown database", http.StatusNotFound)
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	rt := newTestRouter(t, Config{Shards: []string{addr}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	shard, resp := get(t, front.URL, "/v1/databases/pets")
	if resp.StatusCode != http.StatusOK || shard != "s0" {
		t.Fatalf("miss was not healed by adopt: status %d from %q", resp.StatusCode, shard)
	}
	if got := adoptPosts.Load(); got != 1 {
		t.Errorf("adopt POSTs = %d, want 1", got)
	}
	if got := rt.mAdopt.Value(); got != 1 {
		t.Errorf("router_adoptions_total = %v, want 1", got)
	}

	// A tenant with no persisted state anywhere stays a plain 404.
	if _, resp := get(t, front.URL, "/v1/databases/ghost"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant = %d, want 404", resp.StatusCode)
	}
}

func TestStickyShardHeader(t *testing.T) {
	a, b := newEcho(t, "a"), newEcho(t, "b")
	byID := map[string]*echoBackend{"a": a, "b": b}
	rt := newTestRouter(t, Config{Shards: []string{a.addr, b.addr}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, want := range []string{"a", "b"} {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/jobs/some-id", nil)
		req.Header.Set(ShardHeader, byID[want].addr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var echo struct {
			Shard string `json:"shard"`
		}
		json.NewDecoder(resp.Body).Decode(&echo)
		resp.Body.Close()
		if echo.Shard != want {
			t.Fatalf("sticky request for shard %s answered by %s", want, echo.Shard)
		}
	}
}

func TestNoHealthyShards(t *testing.T) {
	dead := deadAddr(t)
	rt := newTestRouter(t, Config{Shards: []string{dead}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	ctx := t.Context()
	rt.CheckNow(ctx)
	rt.CheckNow(ctx)
	if got := len(rt.tab.Load().ring.Shards()); got != 0 {
		t.Fatalf("healthy = %d, want 0", got)
	}
	for _, path := range []string{"/healthz", "/v1/databases/x"} {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s = %d with an empty table, want 503", path, resp.StatusCode)
		}
	}
}

func TestAdaptiveHedgeDelayTracksP95(t *testing.T) {
	a := newEcho(t, "a")
	rt := newTestRouter(t, Config{Shards: []string{a.addr}}) // HedgeAfter 0 = adaptive
	if d, ok := rt.hedgeDelay(); !ok || d != coldHedgeDelay {
		t.Fatalf("cold hedge delay = %v enabled=%v, want %v", d, ok, coldHedgeDelay)
	}
	for i := 0; i < 2*hedgeMinSamples; i++ {
		rt.latAll.Observe(0.010)
	}
	rt.updateHedgeDelay()
	d, ok := rt.hedgeDelay()
	if !ok || d < hedgeFloor || d > 40*time.Millisecond {
		t.Fatalf("adaptive hedge delay = %v enabled=%v, want near the 10ms p95", d, ok)
	}
}

func TestRouterMetricsAndStatusEndpoints(t *testing.T) {
	a := newEcho(t, "a")
	rt := newTestRouter(t, Config{Shards: []string{a.addr}, HedgeAfter: -1})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const n = 5
	for i := 0; i < n; i++ {
		get(t, front.URL, "/v1/databases/metric-tenant")
	}
	resp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples, err := metrics.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if got := metrics.SumSamples(samples, "http_requests_total"); got < n {
		t.Errorf("http_requests_total sum = %v, want >= %d", got, n)
	}
	if got := metrics.SumSamples(samples, "router_requests_total"); got < n {
		t.Errorf("router_requests_total = %v, want >= %d", got, n)
	}

	var st Status
	r2, err := http.Get(front.URL + "/v1/router")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if len(st.Shards) != 1 || !st.Shards[0].Healthy {
		t.Errorf("status = %+v, want one healthy shard", st)
	}
	if st.Shards[0].Placement < 0.999 {
		t.Errorf("single shard placement = %v, want 1.0", st.Shards[0].Placement)
	}
}

// healthyShards counts the healthy entries of a /v1/router report.
func healthyShards(st Status) int {
	n := 0
	for _, s := range st.Shards {
		if s.Healthy {
			n++
		}
	}
	return n
}
