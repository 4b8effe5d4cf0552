package main

// In-process sharded-topology test: a router in front of two shard servers
// over one shared -data-dir. Covers ring-consistent placement through the
// full binary wiring, the zero-failed-requests guarantee across a graceful
// shard kill (retry + register-on-miss adoption), byte-identical
// translations after the hand-off (no re-training), and shard rejoin.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/trace"
)

// reserveAddr grabs a free port and releases it so a shard can be handed a
// concrete address before it boots (the shard's -shard-id must equal its
// advertised address, which newApp needs up front).
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

type shardProc struct {
	app     *app
	cancel  context.CancelFunc
	done    chan error
	stopped bool // kill already drained it; cleanup must not wait again
}

func startShard(t *testing.T, dir, addr string) *shardProc {
	t.Helper()
	a, err := newApp(appConfig{
		Addr:         addr,
		Scale:        0.02,
		Seed:         1,
		Workers:      1,
		JobRunners:   0,
		DrainTimeout: 10 * time.Second,
		MaxTenants:   16,
		DataDir:      dir,
		ShardID:      addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &shardProc{app: a, cancel: cancel, done: make(chan error, 1)}
	go func() { p.done <- a.run(ctx) }()
	<-a.started
	t.Cleanup(func() {
		if p.stopped {
			return
		}
		cancel()
		select {
		case <-p.done:
		case <-time.After(30 * time.Second):
			t.Error("shard did not drain")
		}
	})
	return p
}

func (p *shardProc) kill(t *testing.T) {
	t.Helper()
	p.stopped = true
	p.cancel()
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatal("shard did not drain after kill")
	}
}

// topoClient wraps the through-router request helpers and tallies non-2xx.
type topoClient struct {
	t      *testing.T
	base   string
	non2xx int
}

func (c *topoClient) post(path string, body any, out any) (*http.Response, []byte) {
	c.t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		c.t.Fatalf("POST %s: %v (transport failures count as failed requests)", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		c.non2xx++
	}
	if out != nil {
		json.Unmarshal(raw, out)
	}
	return resp, raw
}

func (c *topoClient) get(path string, out any) *http.Response {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp
}

const topoQuestion = "How many items are there?"

func topoRegistration(name string) map[string]any {
	return map[string]any{
		"name": name,
		"tables": []map[string]any{{
			"name":        "items",
			"primary_key": "id",
			"columns": []map[string]any{
				{"name": "id", "type": "number"},
				{"name": "name", "type": "text"},
				{"name": "price", "type": "number"},
			},
			"rows": [][]any{
				{1.0, "anvil", 9.5},
				{2.0, "rope", 3.25},
			},
		}},
		"demos": []map[string]any{
			{"question": topoQuestion, "sql": "SELECT COUNT(*) FROM items"},
			{"question": "List the names of all items.", "sql": "SELECT name FROM items"},
		},
	}
}

func (c *topoClient) waitTenantReady(name string, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st struct {
			State string `json:"state"`
		}
		c.get("/v1/databases/"+name, &st)
		if st.State == "ready" {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	c.t.Fatalf("tenant %s never became ready", name)
}

// translate runs one tenant translation through the router, recording the
// SQL and the answering shard.
func (c *topoClient) translate(name string) (sql, shard string) {
	c.t.Helper()
	var out struct {
		SQL string `json:"sql"`
	}
	resp, raw := c.post("/v1/translate", map[string]any{"database": name, "question": topoQuestion}, &out)
	if resp.StatusCode != http.StatusOK || out.SQL == "" {
		c.t.Fatalf("translate %s: status %d body %s", name, resp.StatusCode, raw)
	}
	return out.SQL, resp.Header.Get("X-NL2SQL-Shard")
}

func TestShardedTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two full serving stacks plus the router tier")
	}
	dir := t.TempDir()
	addr0, addr1 := reserveAddr(t), reserveAddr(t)
	s0 := startShard(t, dir, addr0)
	_ = s0
	s1 := startShard(t, dir, addr1)

	ra, err := newApp(appConfig{
		Router:        true,
		Addr:          "127.0.0.1:0",
		Shards:        addr0 + "," + addr1,
		ProbeInterval: 100 * time.Millisecond,
		HedgeAfter:    -1, // determinism: no duplicated requests in this test
		DrainTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	rdone := make(chan error, 1)
	go func() { rdone <- ra.run(rctx) }()
	<-ra.started
	t.Cleanup(func() {
		rcancel()
		select {
		case err := <-rdone:
			if err != nil {
				t.Errorf("router drain: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("router did not drain")
		}
	})
	c := &topoClient{t: t, base: "http://" + ra.addr()}

	// Register tenants until each shard owns at least two, verifying the
	// router lands each registration on its ring placement.
	ring := router.BuildRing([]string{addr0, addr1}, router.DefaultVNodes)
	byShard := map[string][]string{}
	for i := 0; len(byShard[addr0]) < 2 || len(byShard[addr1]) < 2; i++ {
		if i >= 32 {
			t.Fatal("32 tenants did not cover both shards — ring balance is broken")
		}
		name := fmt.Sprintf("topo-%d", i)
		resp, raw := c.post("/v1/databases", topoRegistration(name), nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: status %d body %s", name, resp.StatusCode, raw)
		}
		want, _ := ring.Lookup2(name)
		if got := resp.Header.Get("X-NL2SQL-Shard"); got != want {
			t.Fatalf("registration of %s landed on %s, ring places it on %s", name, got, want)
		}
		byShard[want] = append(byShard[want], name)
	}
	var all []string
	for _, names := range byShard {
		all = append(all, names...)
	}
	sqlBefore := map[string]string{}
	for _, name := range all {
		c.waitTenantReady(name, 30*time.Second)
		sql, shard := c.translate(name)
		if want, _ := ring.Lookup2(name); shard != want {
			t.Fatalf("tenant %s served by %s, placed on %s", name, shard, want)
		}
		sqlBefore[name] = sql
	}

	// One trace must span processes: a request stamped with a sampled
	// traceparent produces router spans (proxy, proxy.attempt) and the
	// answering shard's spans under the same trace ID, and the router's
	// /v1/traces/{id} returns them merged into a single tree.
	assertCrossProcessTrace(t, c, all[0])

	// Kill shard1 gracefully mid-run. Every tenant — including those placed
	// on the dead shard — must keep translating with zero failures: retries
	// route around the corpse and the adoption hand-off revives its tenants
	// on the survivor from the shared store, trained state intact.
	s1.kill(t)
	for round := 0; round < 3; round++ {
		for _, name := range all {
			sql, shard := c.translate(name)
			if sql != sqlBefore[name] {
				t.Fatalf("tenant %s translation changed across the hand-off:\n  before: %s\n  after:  %s", name, sqlBefore[name], sql)
			}
			if shard != addr0 {
				t.Fatalf("tenant %s answered by %q after the kill, want survivor %s", name, shard, addr0)
			}
		}
	}
	if c.non2xx != 0 {
		t.Fatalf("%d non-2xx responses across the shard kill, want 0", c.non2xx)
	}

	// The probes eject the dead shard (2 failures at 100ms cadence).
	waitHealthy(t, c, 1)

	// The router drove at least one adoption, visible on its metrics.
	samples := scrapeMetrics(t, c.base)
	if got := metrics.SumSamples(samples, "router_adoptions_total"); got < float64(len(byShard[addr1])) {
		t.Errorf("router_adoptions_total = %v, want >= %d (one per tenant stranded on the dead shard)", got, len(byShard[addr1]))
	}

	// Rejoin: the shard restarts on the same address, recovers its tenants
	// from its own WAL in the shared directory, and is readmitted after one
	// passing probe. Traffic keyed to it flows again — still zero failures.
	startShard(t, dir, addr1)
	waitHealthy(t, c, 2)
	for _, name := range all {
		sql, _ := c.translate(name)
		if sql != sqlBefore[name] {
			t.Fatalf("tenant %s translation changed after rejoin", name)
		}
	}
	if c.non2xx != 0 {
		t.Fatalf("%d non-2xx responses across kill + rejoin, want 0", c.non2xx)
	}
}

// assertCrossProcessTrace drives one tenant translation with an edge-minted
// sampled traceparent through the router, then asserts the router's merged
// span tree carries both tiers: its own proxy/attempt spans and the shard's
// server-side spans, all under the client's trace ID. The topology shards run
// with head-sampling 0, so recording here proves the edge decision propagates
// across process boundaries.
func assertCrossProcessTrace(t *testing.T, c *topoClient, tenant string) {
	t.Helper()
	sc := trace.NewSpanContext(true)
	body, _ := json.Marshal(map[string]any{"database": tenant, "question": topoQuestion})
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/translate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, sc.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced translate: status %d", resp.StatusCode)
	}
	id := sc.TraceID.String()
	if got := resp.Header.Get(trace.IDHeader); got != id {
		t.Fatalf("%s = %q, want the edge trace id %q", trace.IDHeader, got, id)
	}

	// Span capture commits in deferred middleware after the response is on
	// the wire; poll briefly until both tiers appear in the merged tree.
	deadline := time.Now().Add(5 * time.Second)
	var tree trace.TraceJSON
	for {
		r, err := http.Get(c.base + "/v1/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		found := r.StatusCode == http.StatusOK
		if found {
			if err := json.NewDecoder(r.Body).Decode(&tree); err != nil {
				t.Fatal(err)
			}
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		services := map[string]int{}
		for _, sp := range tree.Spans {
			services[sp.Service]++
		}
		var shardSpans int
		for svc, n := range services {
			if strings.HasPrefix(svc, "shard:") {
				shardSpans += n
			}
		}
		if found && services["router"] >= 2 && shardSpans >= 1 {
			if tree.TraceID != id {
				t.Fatalf("merged tree is trace %q, want %q", tree.TraceID, id)
			}
			// The shard's root span must hang off a router attempt span —
			// the parent link is what makes this one tree, not two.
			attempts := map[string]bool{}
			for _, sp := range tree.Spans {
				if sp.Service == "router" && sp.Name == "proxy.attempt" {
					attempts[sp.SpanID] = true
				}
			}
			stitched := false
			for _, sp := range tree.Spans {
				if strings.HasPrefix(sp.Service, "shard:") && attempts[sp.ParentID] {
					stitched = true
				}
			}
			if !stitched {
				t.Fatalf("no shard span parents under a router attempt span: %+v", tree.Spans)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never showed both tiers (found=%v, services=%v)", id, found, services)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func waitHealthy(t *testing.T, c *topoClient, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var st router.Status
		c.get("/v1/router", &st)
		n := 0
		for _, s := range st.Shards {
			if s.Healthy {
				n++
			}
		}
		if n == want {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("router never converged to %d healthy shards", want)
}

// TestStoreInstanceSanitizes pins the shard-id → WAL-name mapping: host:port
// must become a legal instance name, and an empty id must stay empty
// (exclusive store mode).
func TestStoreInstanceSanitizes(t *testing.T) {
	cases := map[string]string{
		"":                "",
		"127.0.0.1:19081": "127.0.0.1-19081",
		"shard-0":         "shard-0",
		"a/b c":           "a-b-c",
	}
	for in, want := range cases {
		if got := storeInstance(in); got != want {
			t.Errorf("storeInstance(%q) = %q, want %q", in, got, want)
		}
	}
	if strings.ContainsAny(storeInstance("x:y/z"), ":/") {
		t.Error("sanitized instance still contains path/port separators")
	}
}
