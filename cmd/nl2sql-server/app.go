package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/spider"
	"repro/internal/store"
	"repro/internal/trace"
)

// shutdownSignals is the set main traps for graceful drain. Both SIGINT
// (interactive ^C) and SIGTERM (orchestrators) must be here — the shutdown
// test delivers a real SIGINT through this list, so dropping one fails CI.
var shutdownSignals = []os.Signal{syscall.SIGINT, syscall.SIGTERM}

// appConfig is the server's effective configuration — main fills it from
// flags; the shutdown test fills it directly.
type appConfig struct {
	Addr          string
	Scale         float64
	Seed          int64
	Workers       int
	CacheCap      int
	JobRunners    int
	JobQueue      int
	JobTTL        time.Duration
	DrainTimeout  time.Duration
	MaxTenants    int
	TenantIdleTTL time.Duration
	// DataDir, when set, makes tenant state durable: catalog mutations go
	// to a WAL and tenant snapshots persist under this directory, so a
	// restart recovers every registered tenant without re-training.
	DataDir string
	// TenantMemBudget bounds resident store-backed tenant bytes (0 = off).
	TenantMemBudget int64
	Pprof           bool
	// ShardID stamps responses with X-NL2SQL-Shard and names this instance's
	// WAL inside a shared -data-dir. Use the shard's advertised host:port so
	// clients can echo the header for sticky routing through the router.
	ShardID string
	// Router switches the process into the proxy tier: no pipeline, no
	// catalog — just the consistent-hash router over Shards.
	Router        bool
	Shards        string // comma-separated shard host:port addresses
	ProbeInterval time.Duration
	HedgeAfter    time.Duration
	// TraceSample is the head-sampling probability (negative disables the
	// tracer entirely); TraceSlow is the tail-retention threshold — traces
	// at least this slow survive ring churn alongside error traces.
	TraceSample float64
	TraceSlow   time.Duration
	// LLMFault enables the LLM fault-injection layer and its /v1/faults
	// control endpoint: faults apply only inside the brownout windows that
	// chaos/soak runs open through it.
	LLMFault bool
	// LogLevel/LogFormat configure the process-wide slog default handler.
	LogLevel  string
	LogFormat string
}

// setupLogging installs the process-wide slog handler main's flags selected.
// Everything downstream (service, router, catalog) logs through slog, so
// this is the single switch between human-readable text and JSON lines.
func setupLogging(level, format string) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -log-level %q: %v", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("bad -log-format %q: want text or json", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// newTracer builds the process tracer from the trace flags; a negative
// sample rate turns tracing off wholesale (the nil Tracer no-ops).
func newTracer(cfg appConfig, service string) *trace.Tracer {
	if cfg.TraceSample < 0 {
		return nil
	}
	return trace.New(trace.Config{
		Service: service,
		Sample:  cfg.TraceSample,
		Slow:    cfg.TraceSlow,
	})
}

// app is the assembled server: the HTTP listener plus the subsystems whose
// drain order shutdown owns. It exists so graceful shutdown is testable
// in-process instead of only observable through a spawned binary.
type app struct {
	cfg     appConfig
	svc     *service.Server
	cat     *catalog.Catalog
	st      *store.Store
	rt      *router.Router
	srv     *http.Server
	ln      net.Listener
	started chan struct{} // closed once the listener is bound
}

// newApp builds the corpus, pipeline and subsystems, and binds the listener
// (so the caller knows Addr is serving when newApp returns). In -router mode
// it builds the proxy tier instead.
func newApp(cfg appConfig) (*app, error) {
	if cfg.Router {
		return newRouterApp(cfg)
	}
	start := time.Now()
	slog.Info("generating corpus and training pipeline", "scale", cfg.Scale, "seed", cfg.Seed)
	corpus := spider.GenerateSmall(cfg.Seed, cfg.Scale)
	sim := llm.Client(llm.NewSim(llm.ChatGPT))
	base, client := sim, sim
	var fault *llm.Fault
	if cfg.LLMFault {
		fault = llm.NewFault(llm.FaultConfig{Seed: cfg.Seed})
		// The catalog path is degraded inside the per-tenant caches (tenants
		// wrap base themselves); the pipeline path is wrapped again outside
		// its cache below, so a brownout bites even on cache hits.
		base = fault.Wrap(sim)
		slog.Info("llm fault injection enabled")
	}
	svcName := "nl2sql-server"
	if cfg.ShardID != "" {
		svcName = "shard:" + cfg.ShardID
	}
	tr := newTracer(cfg, svcName)
	opts := []service.Option{service.WithWorkers(cfg.Workers)}
	if tr != nil {
		opts = append(opts, service.WithTracer(tr))
	}
	var cache *llm.Cache
	if cfg.CacheCap > 0 {
		cache = llm.NewCache(client, cfg.CacheCap)
		client = cache
	}
	if fault != nil {
		// Outermost on the pipeline path: injected latency and brownout
		// errors apply per request, not merely per cache miss — the lever a
		// chaos scenario uses to saturate the jobs queue deterministically.
		client = fault.Wrap(client)
		opts = append(opts, service.WithFault(fault))
	}
	if cfg.JobRunners > 0 {
		opts = append(opts, service.WithJobs(jobs.Config{
			Runners: cfg.JobRunners,
			Queue:   cfg.JobQueue,
			Workers: cfg.Workers,
			TTL:     cfg.JobTTL,
		}))
	}
	pipeline := core.New(corpus.Train.Examples, client, core.DefaultConfig())
	var cat *catalog.Catalog
	var st *store.Store
	if cfg.MaxTenants > 0 {
		var err error
		if cfg.DataDir != "" {
			st, err = store.Open(cfg.DataDir, store.Options{Instance: storeInstance(cfg.ShardID)})
			if err != nil {
				return nil, err
			}
			ss := st.Stats()
			slog.Info("tenant store recovered", "dir", cfg.DataDir,
				"tenants", ss.Recovered, "wal_records", ss.WALReplayed,
				"recovery_ms", ss.RecoveryMs, "snapshots", ss.Snapshots, "snapshot_bytes", ss.SnapshotB)
		}
		// Warming tenants run on the shard pipeline's models; the tenants
		// wrap the raw backend in their own caches.
		cat, err = catalog.New(catalog.Config{
			Client:       base,
			Base:         pipeline,
			MaxTenants:   cfg.MaxTenants,
			IdleTTL:      cfg.TenantIdleTTL,
			Store:        st,
			MemoryBudget: cfg.TenantMemBudget,
		})
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, err
		}
		opts = append(opts, service.WithCatalog(cat))
		slog.Info("catalog ready", "max_tenants", cfg.MaxTenants)
	}
	if cfg.ShardID != "" {
		opts = append(opts, service.WithShardID(cfg.ShardID))
	}
	svc := service.New(pipeline, corpus, opts...)
	metrics.RegisterProcess(svc.Registry())
	if cache != nil {
		cache.Instrument(svc.Registry(), "llm")
	}
	slog.Info("pipeline ready", "startup", time.Since(start).Round(time.Millisecond).String(),
		"dev_tasks", len(corpus.Dev.Examples), "databases", len(corpus.Dev.Databases),
		"job_runners", cfg.JobRunners, "job_queue", cfg.JobQueue)

	handler := svc.Handler()
	if cfg.Pprof {
		handler = withPprof(handler)
		slog.Info("pprof debug endpoints enabled under /debug/pprof/")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	return &app{
		cfg: cfg,
		svc: svc,
		cat: cat,
		st:  st,
		ln:  ln,
		srv: &http.Server{
			Handler:      handler,
			ReadTimeout:  30 * time.Second,
			WriteTimeout: 120 * time.Second,
		},
		started: make(chan struct{}),
	}, nil
}

// storeInstance derives a shared-store instance name from the shard
// identity: host:port is the natural -shard-id but ':' is not a valid
// instance character, so it maps to '-'. Empty stays empty (exclusive mode).
func storeInstance(shardID string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, shardID)
}

// newRouterApp assembles the proxy tier: no corpus, no pipeline — the
// consistent-hash router over -shards.
func newRouterApp(cfg appConfig) (*app, error) {
	var shards []string
	for _, s := range strings.Split(cfg.Shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	rt, err := router.New(router.Config{
		Shards:        shards,
		ProbeInterval: cfg.ProbeInterval,
		HedgeAfter:    cfg.HedgeAfter,
		Tracer:        newTracer(cfg, "router"),
	})
	if err != nil {
		return nil, err
	}
	metrics.RegisterProcess(rt.Registry())
	handler := http.Handler(rt.Handler())
	if cfg.Pprof {
		handler = withPprof(handler)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		rt.Close()
		return nil, err
	}
	slog.Info("router ready", "shards", strings.Join(shards, ","),
		"probe_interval", cfg.ProbeInterval.String(), "hedge_after", cfg.HedgeAfter.String())
	return &app{
		cfg: cfg,
		rt:  rt,
		ln:  ln,
		srv: &http.Server{
			Handler:      handler,
			ReadTimeout:  30 * time.Second,
			WriteTimeout: 120 * time.Second,
		},
		started: make(chan struct{}),
	}, nil
}

// withPprof mounts the runtime profiling endpoints next to the service
// routes — explicitly, not via the net/http/pprof DefaultServeMux side
// effect, so nothing else riding that mux leaks onto the serving port.
func withPprof(inner http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// addr reports the bound listen address (useful with ":0").
func (a *app) addr() string { return a.ln.Addr().String() }

// run serves until ctx is cancelled (SIGINT/SIGTERM in main), then drains:
// HTTP listener first, then the job subsystem, then the catalog's build
// manager — each with its own DrainTimeout budget so a slow stage cannot
// starve the next one's grace period. It returns nil on a clean drain.
func (a *app) run(ctx context.Context) error {
	errc := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", a.addr())
		close(a.started)
		errc <- a.srv.Serve(a.ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	slog.Info("signal received; draining", "stage_budget", a.cfg.DrainTimeout.String())
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), a.cfg.DrainTimeout)
	defer cancelHTTP()
	if err := a.srv.Shutdown(httpCtx); err != nil {
		slog.Warn("http shutdown", "err", err)
	}
	if a.rt != nil {
		// Router mode: in-flight proxied requests were covered by the HTTP
		// drain above; stopping the probe loop and the pooled transports is
		// all that remains.
		a.rt.Close()
		slog.Info("router drained")
		return nil
	}
	// The job drain gets its own budget: a slow in-flight HTTP request must
	// not eat the time promised to running jobs.
	jobCtx, cancelJobs := context.WithTimeout(context.Background(), a.cfg.DrainTimeout)
	defer cancelJobs()
	var drainErr error
	if err := a.svc.Shutdown(jobCtx); err != nil {
		drainErr = err
		slog.Warn("job drain cut short; partial results checkpointed", "err", err)
	} else {
		slog.Info("drained cleanly")
	}
	if a.cat != nil {
		catCtx, cancelCat := context.WithTimeout(context.Background(), a.cfg.DrainTimeout)
		defer cancelCat()
		if err := a.cat.Close(catCtx); err != nil {
			slog.Warn("catalog drain cut short", "err", err)
		}
	}
	// The store closes last: the catalog appends to the WAL until its build
	// manager drains.
	if a.st != nil {
		if err := a.st.Close(); err != nil {
			slog.Warn("store close", "err", err)
		}
	}
	return drainErr
}
