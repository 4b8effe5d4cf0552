// Package router is the horizontal-sharding tier: a thin HTTP proxy that
// spreads tenants across nl2sql-server shards with a consistent-hash ring,
// health-probes the shard set, retries connection failures against ring
// neighbours, hedges tail latency with a delayed duplicate to the replica
// successor, and drives the register-on-miss hand-off (POST
// /v1/databases/{name}/adopt) so a tenant whose placement moved serves from
// its persisted snapshot instead of re-training.
//
// The routing table (ring over the currently healthy shards) is an
// immutable value behind an atomic pointer — the request path loads it
// lock-free, RCU style, exactly like the catalog's tenant map — and only
// the probe loop writes a replacement when a shard's health transitions.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ShardHeader carries shard attribution on responses. Shards set it to
// their -shard-id; when an upstream answers without one the router fills in
// the target address. Clients may echo it on follow-up requests (job polls)
// for sticky routing — that only works when -shard-id is the shard's
// advertised host:port, which is how the topology harness runs.
const ShardHeader = "X-NL2SQL-Shard"

const (
	ejectThreshold  = 2                      // consecutive probe failures before ejection
	retries         = 2                      // extra attempts against other shards after a transport error
	maxProbeWait    = 2 * time.Second        // one probe's bound, tightened to the probe interval when shorter
	coldHedgeDelay  = 25 * time.Millisecond  // adaptive hedge delay before enough samples
	hedgeMinSamples = 50                     // observations before trusting the p95
	hedgeFloor      = 2 * time.Millisecond   // adaptive clamp: never hedge hotter than this
	hedgeCeil       = 500 * time.Millisecond // adaptive clamp: hedging slower than this is pointless
	maxBodyBytes    = 32 << 20               // request bodies are buffered for retry/hedge replay
)

var errNoShards = errors.New("no healthy shards")

// Config parameterizes a Router. Shards is required; zero values elsewhere
// select the noted defaults.
type Config struct {
	// Shards is the backend set as host:port addresses (an http:// prefix
	// is tolerated and stripped). Order does not matter — placement is
	// order-independent by construction.
	Shards []string
	// ProbeInterval is the health-probe cadence (default 1s). Negative
	// disables the background loop; tests then drive CheckNow directly.
	ProbeInterval time.Duration
	// HedgeAfter fixes the hedging delay. Zero selects the adaptive mode —
	// the router's observed p95, clamped to [2ms, 500ms], re-derived each
	// probe tick. Negative disables hedging.
	HedgeAfter time.Duration
	// Tracer, when non-nil, opens a root span per proxied request (adopting a
	// sampled client traceparent), tags each upstream attempt, and serves
	// /v1/traces with cross-shard span merging on /v1/traces/{id}.
	Tracer *trace.Tracer
}

// table is one immutable routing epoch: the ring spans exactly the healthy
// shards. Readers load it with a single atomic pointer read.
type table struct {
	ring  *Ring
	epoch uint64
}

type shardHealth struct {
	fails   int
	healthy bool
}

type adoptCall struct {
	done chan struct{}
	ok   bool
}

// Router proxies the nl2sql service surface across a shard set.
type Router struct {
	cfg           Config
	shards        []string // normalized, sorted, deduplicated
	shardSet      map[string]bool
	probeInterval time.Duration
	probeTimeout  time.Duration

	client      *http.Client
	probeClient *http.Client
	transport   *http.Transport // pooled, sized for shard fan-in

	tab     atomic.Pointer[table]
	rr      atomic.Uint64 // round-robin cursor for keyless requests
	hedgeNs atomic.Int64  // adaptive hedge delay, nanoseconds

	probeMu sync.Mutex // serializes CheckNow; owns health + epoch
	health  map[string]shardHealth
	epoch   uint64

	adoptMu  sync.Mutex
	adopting map[string]*adoptCall

	tracer *trace.Tracer

	reg       *metrics.Registry
	latAll    *metrics.Histogram // aggregate proxy latency, feeds the p95 hedge delay
	latShard  map[string]*metrics.Histogram
	reqCodes  sync.Map // int status -> *metrics.Counter (http_requests_total)
	mRequests *metrics.Counter
	mRetries  *metrics.Counter
	mHedges   *metrics.Counter
	mHedgeWin *metrics.Counter
	mHedgeLos *metrics.Counter
	mEject    *metrics.Counter
	mReadmit  *metrics.Counter
	mAdopt    *metrics.Counter
	gHealthy  *metrics.Gauge

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	looping  bool
}

// New builds a Router over the configured shard set. All shards start
// healthy (optimistic: probes eject the dead ones within two intervals, and
// a router that assumed the worst could serve nothing at boot).
func New(cfg Config) (*Router, error) {
	shards, err := normalizeShards(cfg.Shards)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:           cfg,
		shards:        shards,
		shardSet:      map[string]bool{},
		probeInterval: cfg.ProbeInterval,
		probeTimeout:  maxProbeWait,
		health:        map[string]shardHealth{},
		adopting:      map[string]*adoptCall{},
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	if rt.probeInterval == 0 {
		rt.probeInterval = time.Second
	}
	if rt.probeInterval > 0 && rt.probeInterval < rt.probeTimeout {
		rt.probeTimeout = rt.probeInterval
	}
	rt.transport = &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   2 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
	noRedirect := func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse // a proxy relays redirects, it does not follow them
	}
	rt.client = &http.Client{Transport: rt.transport, CheckRedirect: noRedirect}
	rt.probeClient = &http.Client{Transport: rt.transport, Timeout: rt.probeTimeout, CheckRedirect: noRedirect}

	for _, s := range shards {
		rt.shardSet[s] = true
		rt.health[s] = shardHealth{healthy: true}
	}

	rt.tracer = cfg.Tracer
	rt.reg = metrics.NewRegistry()
	rt.latAll = metrics.NewHistogram(metrics.DefBuckets)
	rt.latShard = make(map[string]*metrics.Histogram, len(shards))
	for _, s := range shards {
		rt.latShard[s] = rt.reg.Histogram("router_upstream_latency_seconds",
			"Proxied request latency by shard.", metrics.DefBuckets, metrics.L("shard", s))
	}
	rt.mRequests = rt.reg.Counter("router_requests_total", "Requests handled by the proxy path.")
	rt.mRetries = rt.reg.Counter("router_retries_total", "Attempts re-issued to another shard after a transport error.")
	rt.mHedges = rt.reg.Counter("router_hedges_total", "Hedge requests fired to the replica successor.")
	rt.mHedgeWin = rt.reg.Counter("router_hedge_wins_total", "Hedged requests answered by the hedge.")
	rt.mHedgeLos = rt.reg.Counter("router_hedge_losses_total", "Hedged requests answered by the primary after the hedge fired.")
	rt.mEject = rt.reg.Counter("router_ejections_total", "Shards ejected from the ring by health probes.")
	rt.mReadmit = rt.reg.Counter("router_readmissions_total", "Ejected shards readmitted after a passing probe.")
	rt.mAdopt = rt.reg.Counter("router_adoptions_total", "Successful register-on-miss adoptions driven by the router.")
	rt.gHealthy = rt.reg.Gauge("router_healthy_shards", "Shards currently in the routing table.")

	rt.hedgeNs.Store(int64(coldHedgeDelay))
	rt.publishLocked()

	if rt.probeInterval > 0 {
		rt.looping = true
		go rt.probeLoop()
	}
	return rt, nil
}

func normalizeShards(in []string) ([]string, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("router: at least one shard address is required")
	}
	seen := map[string]bool{}
	out := make([]string, 0, len(in))
	for _, s := range in {
		a := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(s), "http://"), "/")
		if a == "" {
			return nil, fmt.Errorf("router: empty shard address")
		}
		if _, _, err := net.SplitHostPort(a); err != nil {
			return nil, fmt.Errorf("router: bad shard address %q: %v", s, err)
		}
		if seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	sort.Strings(out)
	return out, nil
}

// Close stops the probe loop and releases pooled connections.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	if rt.looping {
		<-rt.done
	}
	rt.transport.CloseIdleConnections()
}

func (rt *Router) probeLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.CheckNow(context.Background())
		}
	}
}

// CheckNow runs one probe round synchronously: every shard is probed
// concurrently, health counters advance, and a changed healthy set
// publishes a new routing table. The probe loop calls this on its tick;
// tests call it directly for deterministic eject/readmit sequencing.
func (rt *Router) CheckNow(ctx context.Context) {
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	ok := make([]bool, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			ok[i] = rt.probe(ctx, addr)
		}(i, s)
	}
	wg.Wait()
	changed := false
	for i, addr := range rt.shards {
		h := rt.health[addr]
		if ok[i] {
			h.fails = 0
			if !h.healthy {
				h.healthy = true
				changed = true
				rt.mReadmit.Inc()
				slog.Info("shard readmitted", "shard", addr, "epoch", rt.epoch+1)
			}
		} else {
			h.fails++
			if h.healthy && h.fails >= ejectThreshold {
				h.healthy = false
				changed = true
				rt.mEject.Inc()
				slog.Warn("shard ejected", "shard", addr, "fails", h.fails, "epoch", rt.epoch+1)
			}
		}
		rt.health[addr] = h
	}
	if changed {
		rt.publishLocked()
	}
	rt.updateHedgeDelay()
}

func (rt *Router) probe(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, rt.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// publishLocked swaps in a fresh routing table over the healthy subset.
// Caller holds probeMu (or is New, before any reader exists).
func (rt *Router) publishLocked() {
	healthy := make([]string, 0, len(rt.shards))
	for _, s := range rt.shards {
		if rt.health[s].healthy {
			healthy = append(healthy, s)
		}
	}
	rt.epoch++
	rt.tab.Store(&table{ring: BuildRing(healthy, DefaultVNodes), epoch: rt.epoch})
	rt.gHealthy.Set(float64(len(healthy)))
}

// updateHedgeDelay re-derives the adaptive hedge delay from the proxy's own
// latency distribution. Fixed and disabled modes never touch it.
func (rt *Router) updateHedgeDelay() {
	if rt.cfg.HedgeAfter != 0 {
		return
	}
	snap := rt.latAll.Snapshot()
	if snap.Count < hedgeMinSamples {
		return
	}
	d := time.Duration(snap.Quantile(0.95) * float64(time.Second))
	if d < hedgeFloor {
		d = hedgeFloor
	}
	if d > hedgeCeil {
		d = hedgeCeil
	}
	rt.hedgeNs.Store(int64(d))
}

// hedgeDelay reports the current delay and whether hedging is enabled.
func (rt *Router) hedgeDelay() (time.Duration, bool) {
	switch {
	case rt.cfg.HedgeAfter < 0:
		return 0, false
	case rt.cfg.HedgeAfter > 0:
		return rt.cfg.HedgeAfter, true
	default:
		return time.Duration(rt.hedgeNs.Load()), true
	}
}

// Registry exposes the router's metrics registry — the router_* instruments
// and the proxy's http_requests_total, served at /v1/metrics — so the caller
// can register process gauges on the same exposition.
func (rt *Router) Registry() *metrics.Registry { return rt.reg }

// ---- HTTP surface ----

// Handler returns the router's HTTP surface: /healthz (200 iff the table
// is non-empty), /v1/metrics, /v1/router (topology status JSON), and the
// proxy for everything else.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.Handle("GET /v1/metrics", rt.reg)
	mux.HandleFunc("GET /v1/router", rt.handleStatus)
	// With tracing off these patterns are absent, so /v1/traces proxies
	// through to a shard like any other GET — a single-shard deployment
	// still answers. With tracing on, the router answers itself, merging
	// shard spans into its own trees on the by-ID lookup.
	if rt.tracer != nil {
		mux.HandleFunc("GET /v1/traces", rt.tracer.ServeList)
		mux.HandleFunc("GET /v1/traces/{id}", rt.handleTraceGet)
	}
	mux.HandleFunc("/", rt.handleProxy)
	return mux
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.tab.Load().ring.Len() == 0 {
		http.Error(w, "no healthy shards", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// ShardStatus is one shard's row in the /v1/router report.
type ShardStatus struct {
	Addr      string  `json:"addr"`
	Healthy   bool    `json:"healthy"`
	Placement float64 `json:"placement"` // share of the ring, 0 when ejected
}

// Status is the /v1/router report. The healthy count is the number of
// healthy entries in Shards (also the router_healthy_shards gauge).
type Status struct {
	Epoch        uint64        `json:"epoch"`
	HedgeAfterMs float64       `json:"hedge_after_ms"` // negative when hedging is disabled
	Shards       []ShardStatus `json:"shards"`
}

// Status reports the current topology.
func (rt *Router) Status() Status {
	tab := rt.tab.Load()
	placement := tab.ring.Placement()
	st := Status{Epoch: tab.epoch, HedgeAfterMs: -1}
	if d, ok := rt.hedgeDelay(); ok {
		st.HedgeAfterMs = float64(d) / float64(time.Millisecond)
	}
	for _, s := range rt.shards {
		share, healthy := placement[s]
		st.Shards = append(st.Shards, ShardStatus{Addr: s, Healthy: healthy, Placement: share})
	}
	return st
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.Status())
}

// upstreamResponse is a fully buffered shard reply. Buffering is what makes
// retry, hedging and adopt-then-retry safe: no partially consumed stream
// ever reaches the client.
type upstreamResponse struct {
	status int
	header http.Header
	body   []byte
	target string
}

func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Inc()
	// Root span for the whole proxied exchange. A sampled client traceparent
	// forces recording and parents this span under the caller's; attempts
	// then re-inject so each shard's own root nests under its attempt span.
	parent, _ := trace.Extract(r.Header)
	ctx, sp := rt.tracer.StartRoot(r.Context(), "proxy", parent)
	final := http.StatusOK
	if sp != nil {
		sp.SetRoute(r.URL.Path)
		sp.SetAttrs(trace.Str("method", r.Method))
		w.Header().Set(trace.IDHeader, sp.TraceID())
		r = r.WithContext(ctx)
		defer func() {
			sp.SetAttrs(trace.Int("status", int64(final)))
			sp.SetError(final >= http.StatusInternalServerError)
			sp.Finish()
		}()
	}
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err != nil {
			final = http.StatusBadRequest
			rt.writeError(w, final, "reading request body: "+err.Error())
			return
		}
		if len(b) > maxBodyBytes {
			final = http.StatusRequestEntityTooLarge
			rt.writeError(w, final, "request body exceeds the proxy buffer limit")
			return
		}
		body = b
	}
	key := RoutingKey(r, body)
	if key != "" {
		sp.SetTenant(key)
	}
	res, err := rt.dispatch(r, body, key)
	if err != nil {
		final = http.StatusBadGateway
		if errors.Is(err, errNoShards) {
			final = http.StatusServiceUnavailable
		}
		sp.SetAttrs(trace.Str("proxy_error", err.Error()))
		rt.writeError(w, final, "router: "+err.Error())
		return
	}
	// Register-on-miss: a 404 for a tenant the ring places on this shard may
	// just mean the placement moved (shard died, shard set changed) while the
	// tenant's trained state sits in the shared store. One single-flighted
	// adopt asks the shard to take it over; on success the original request
	// is replayed once.
	if res.status == http.StatusNotFound && key != "" && !strings.HasSuffix(r.URL.Path, "/adopt") {
		if rt.adoptOnce(r.Context(), res.target, key) {
			if res2, err2 := rt.proxyOnce(r.Context(), r, body, res.target, trace.Bool("adopt_replay", true)); err2 == nil {
				res = res2
			}
		}
	}
	final = res.status
	rt.countRequest(res.status)
	// The shard stamped the same trace ID the router already set on this
	// response; drop its copy so the header appears once.
	if sp != nil {
		res.header.Del(trace.IDHeader)
	}
	copyHeaders(w.Header(), res.header)
	if w.Header().Get(ShardHeader) == "" {
		w.Header().Set(ShardHeader, res.target)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, msg string) {
	rt.countRequest(status)
	http.Error(w, msg, status)
}

// countRequest records the final status on http_requests_total with the
// same label shape the shards use, so a metrics consumer (the loadgen
// harness included) can account for offered load at the router alone.
func (rt *Router) countRequest(status int) {
	if c, ok := rt.reqCodes.Load(status); ok {
		c.(*metrics.Counter).Inc()
		return
	}
	c := rt.reg.Counter("http_requests_total", "HTTP requests by route and status code.",
		metrics.L("route", "proxy"), metrics.L("code", strconv.Itoa(status)))
	actual, _ := rt.reqCodes.LoadOrStore(status, c)
	actual.(*metrics.Counter).Inc()
}

// RoutingKey extracts the tenant identity a request should shard on: the
// /v1/databases/{name} path segment, else the database (or, on the
// registration collection, name) field of a JSON body. Empty means the
// request is tenant-free and round-robins.
func RoutingKey(r *http.Request, body []byte) string {
	if p, ok := strings.CutPrefix(r.URL.Path, "/v1/databases/"); ok && p != "" {
		if i := strings.IndexByte(p, '/'); i >= 0 {
			p = p[:i]
		}
		return strings.ToLower(p)
	}
	if len(body) > 0 {
		var probe struct {
			Database string `json:"database"`
			Name     string `json:"name"`
		}
		if json.Unmarshal(body, &probe) == nil {
			if probe.Database != "" {
				return strings.ToLower(probe.Database)
			}
			if r.URL.Path == "/v1/databases" && probe.Name != "" {
				return strings.ToLower(probe.Name)
			}
		}
	}
	return ""
}

// hedgeable limits duplicated requests to surfaces that are safe and cheap
// to issue twice: reads, and the two idempotent hot-path translations.
// Batch fan-outs and job submissions are never duplicated — a hedged job
// would run twice.
func hedgeable(r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	if r.Method != http.MethodPost {
		return false
	}
	return r.URL.Path == "/v1/translate" || r.URL.Path == "/v1/execute"
}

type attemptResult struct {
	res *upstreamResponse
	err error
}

// dispatch routes one buffered request: candidate order is ring primary,
// replica successor, then the remaining healthy shards; transport errors
// spend the retry budget walking that order, and the first attempt hedges
// when eligible.
func (rt *Router) dispatch(r *http.Request, body []byte, key string) (*upstreamResponse, error) {
	tab := rt.tab.Load()
	shards := tab.ring.Shards()
	if len(shards) == 0 {
		return nil, errNoShards
	}
	var primary, successor string
	if sticky := r.Header.Get(ShardHeader); sticky != "" && rt.shardSet[sticky] {
		primary = sticky
	} else if key != "" {
		primary, successor = tab.ring.Lookup2(key)
	} else {
		i := int(rt.rr.Add(1) % uint64(len(shards)))
		primary = shards[i]
		if len(shards) > 1 {
			successor = shards[(i+1)%len(shards)]
		}
	}
	cands := make([]string, 0, len(shards)+1)
	cands = append(cands, primary)
	if successor != "" && successor != primary {
		cands = append(cands, successor)
	}
	for _, s := range shards {
		if s != primary && s != successor {
			cands = append(cands, s)
		}
	}
	if len(cands) > 1+retries {
		cands = cands[:1+retries]
	}
	trace.FromContext(r.Context()).SetAttrs(
		trace.Str("primary_shard", primary), trace.Int("candidates", int64(len(cands))))
	hedge := successor != "" && hedgeable(r)
	var lastErr error
	for i, target := range cands {
		if i > 0 {
			rt.mRetries.Inc()
		}
		var res *upstreamResponse
		var err error
		if d, ok := rt.hedgeDelay(); i == 0 && hedge && ok {
			res, err = rt.hedgedOnce(r.Context(), r, body, primary, successor, d)
		} else {
			res, err = rt.proxyOnce(r.Context(), r, body, target, trace.Int("attempt", int64(i)))
		}
		if err != nil {
			if r.Context().Err() != nil {
				return nil, err // the client went away; more attempts serve no one
			}
			lastErr = err
			continue
		}
		return res, nil
	}
	return nil, lastErr
}

// hedgedOnce races the primary against a delayed duplicate on the replica
// successor. First usable response wins and the loser's context is
// cancelled. A hedge 404 while the primary is still in flight is held back
// — the replica may simply not host the tenant — and only used if the
// primary fails outright.
func (rt *Router) hedgedOnce(ctx context.Context, r *http.Request, body []byte, primary, successor string, delay time.Duration) (*upstreamResponse, error) {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	pch := make(chan attemptResult, 1)
	go func() {
		res, err := rt.proxyOnce(pctx, r, body, primary, trace.Int("attempt", 0))
		pch <- attemptResult{res, err}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case pr := <-pch:
		return pr.res, pr.err
	case <-timer.C:
	}
	rt.mHedges.Inc()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hch := make(chan attemptResult, 1)
	go func() {
		// The duplicate is a sibling attempt span tagged hedge=true, so a
		// trace shows both racers and which shard each one hit.
		res, err := rt.proxyOnce(hctx, r, body, successor, trace.Bool("hedge", true))
		hch <- attemptResult{res, err}
	}()
	root := trace.FromContext(ctx)
	var held *upstreamResponse
	var pdone, hdone bool
	var perr error
	for {
		select {
		case pr := <-pch:
			pdone = true
			if pr.err == nil {
				hcancel()
				rt.mHedgeLos.Inc()
				root.SetAttrs(trace.Str("hedge_outcome", "loss"))
				return pr.res, nil
			}
			perr = pr.err
			if held != nil {
				rt.mHedgeWin.Inc()
				root.SetAttrs(trace.Str("hedge_outcome", "win"))
				return held, nil
			}
			if hdone {
				return nil, perr
			}
		case hr := <-hch:
			hdone = true
			if hr.err == nil {
				if hr.res.status == http.StatusNotFound && !pdone {
					held = hr.res
					continue
				}
				pcancel()
				rt.mHedgeWin.Inc()
				root.SetAttrs(trace.Str("hedge_outcome", "win"))
				return hr.res, nil
			}
			if pdone {
				return nil, perr
			}
		}
	}
}

// proxyOnce issues the buffered request to one shard and buffers the reply.
// Each call is one "proxy.attempt" span; re-injecting its traceparent (over
// whatever the client sent) parents the shard's root span under this
// attempt, which is what stitches one trace across processes.
func (rt *Router) proxyOnce(ctx context.Context, r *http.Request, body []byte, target string, attrs ...trace.Attr) (*upstreamResponse, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, "http://"+target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	req.Header.Del(ShardHeader) // consumed for stickiness; shards answer with their own
	sctx, sp := trace.StartSpan(ctx, "proxy.attempt")
	if sp != nil {
		sp.SetAttrs(trace.Str("shard", target))
		sp.SetAttrs(attrs...)
		trace.Inject(sctx, req.Header)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		sp.SetError(true)
		sp.SetAttrs(trace.Str("error", err.Error()))
		sp.Finish()
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		sp.SetError(true)
		sp.SetAttrs(trace.Str("error", err.Error()))
		sp.Finish()
		return nil, err
	}
	elapsed := time.Since(start)
	sp.SetAttrs(trace.Int("status", int64(resp.StatusCode)))
	sp.Finish()
	rt.latAll.Observe(elapsed.Seconds())
	if h := rt.latShard[target]; h != nil {
		h.Observe(elapsed.Seconds())
	}
	return &upstreamResponse{status: resp.StatusCode, header: resp.Header.Clone(), body: rb, target: target}, nil
}

// adoptOnce single-flights the hand-off trigger per tenant key: one POST
// .../adopt per storm of concurrent misses, everyone else waits for its
// verdict.
func (rt *Router) adoptOnce(ctx context.Context, target, key string) (adopted bool) {
	if _, asp := trace.StartSpan(ctx, "proxy.adopt"); asp != nil {
		asp.SetAttrs(trace.Str("shard", target), trace.Str("tenant", key))
		defer func() {
			asp.SetAttrs(trace.Bool("ok", adopted))
			asp.Finish()
		}()
	}
	rt.adoptMu.Lock()
	if c, ok := rt.adopting[key]; ok {
		rt.adoptMu.Unlock()
		select {
		case <-c.done:
			return c.ok
		case <-ctx.Done():
			return false
		}
	}
	c := &adoptCall{done: make(chan struct{})}
	rt.adopting[key] = c
	rt.adoptMu.Unlock()
	defer func() {
		rt.adoptMu.Lock()
		delete(rt.adopting, key)
		rt.adoptMu.Unlock()
		close(c.done)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+target+"/v1/databases/"+key+"/adopt", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.ok = resp.StatusCode/100 == 2
	if c.ok {
		rt.mAdopt.Inc()
	}
	return c.ok
}

// hopHeaders are connection-scoped and never forwarded (RFC 9110 §7.6.1).
// Content-Length is recomputed from the buffered body.
var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
	"Content-Length",
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}
