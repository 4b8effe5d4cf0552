// Command nl2sql-server serves the PURPLE pipeline over HTTP.
//
//	nl2sql-server -addr :8080 -scale 0.1 -workers 8 -job-runners 2 -job-queue 16
//	curl localhost:8080/v1/databases
//	curl -X POST localhost:8080/v1/translate -d '{"task_id": 3}'
//	curl -X POST localhost:8080/v1/batch -d '{"task_ids": [0,1,2,3], "workers": 4}'
//	curl -X POST localhost:8080/v1/jobs -d '{"task_ids": [0,1,2,3]}'   # async: returns a job id
//	curl localhost:8080/v1/jobs/job-000001                             # poll progress/results
//	curl -X DELETE localhost:8080/v1/jobs/job-000001                   # cancel
//	curl localhost:8080/v1/metrics                                     # Prometheus text exposition
//	curl -X POST localhost:8080/v1/execute -d '{"database":"tv","sql":"SELECT COUNT(*) FROM cartoon"}'
//
// Multi-tenant catalog: register your own database with demonstrations and
// translate against it (see examples/custom-database for a full client):
//
//	curl -X POST localhost:8080/v1/databases -d '{"name":"shop","tables":[...],"demos":[...]}'
//	curl localhost:8080/v1/databases/shop                  # warming -> ready
//	curl -X POST localhost:8080/v1/translate -d '{"database":"shop","question":"..."}'
//
// Observability: every route records per-status request counts and a latency
// histogram, exported with the tenant/job/cache and process instruments on
// /v1/metrics; -pprof additionally mounts the runtime profiling endpoints
// under /debug/pprof/. Requests are traced end to end (HTTP root span,
// catalog, pipeline stages, LLM calls, SQL execution, jobs) under W3C
// traceparent propagation — -trace-sample sets the head-sampling rate,
// -trace-slow the tail-retention threshold, and error traces are always
// kept. Logs go through log/slog (-log-level, -log-format text|json) with
// trace_id/tenant/shard fields on request-path warnings.
//
//	curl 'localhost:8080/v1/traces?min_ms=250'       # retained slow traces
//	curl localhost:8080/v1/traces/<trace_id>         # full span tree
//	curl -H 'traceparent: 00-<32hex>-<16hex>-01' ... # client-forced sampling
//
// On SIGINT/SIGTERM the server stops accepting connections, then drains the
// job subsystem: queued jobs are cancelled, running jobs get -drain-timeout
// to finish before being cancelled with partial results checkpointed.
//
// Horizontal sharding: -router turns the process into the proxy tier that
// spreads tenants across shards on a consistent-hash ring, health-probes the
// shard set, and hedges tail latency (see DESIGN.md):
//
//	nl2sql-server -addr :19081 -shard-id 127.0.0.1:19081 -data-dir ./shared &
//	nl2sql-server -addr :19082 -shard-id 127.0.0.1:19082 -data-dir ./shared &
//	nl2sql-server -router -addr :8080 -shards 127.0.0.1:19081,127.0.0.1:19082
//	curl localhost:8080/v1/router                          # topology status
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"time"
)

func main() {
	var cfg appConfig
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	flag.Float64Var(&cfg.Scale, "scale", 0.1, "corpus scale")
	flag.Int64Var(&cfg.Seed, "seed", 1, "corpus seed")
	flag.IntVar(&cfg.Workers, "workers", 4, "default /v1/batch worker-pool size")
	flag.IntVar(&cfg.CacheCap, "cache", 4096, "LLM response cache capacity in entries (0 disables)")
	flag.IntVar(&cfg.JobRunners, "job-runners", 2, "concurrent async jobs (runner goroutines; 0 disables /v1/jobs)")
	flag.IntVar(&cfg.JobQueue, "job-queue", 16, "async job admission-queue capacity (full queue => 429)")
	flag.DurationVar(&cfg.JobTTL, "job-ttl", 15*time.Minute, "how long finished jobs stay queryable")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget per drain stage (HTTP, jobs, catalog)")
	flag.IntVar(&cfg.MaxTenants, "max-tenants", 64, "registered-database cap; past it the least-recently-used tenant is evicted (0 disables the catalog)")
	flag.DurationVar(&cfg.TenantIdleTTL, "tenant-idle-ttl", 0, "evict tenants unused for this long (0 disables idle eviction)")
	flag.StringVar(&cfg.DataDir, "data-dir", "", "directory for durable tenant state (WAL fsynced per append + snapshots); empty keeps the catalog memory-only")
	flag.Int64Var(&cfg.TenantMemBudget, "tenant-mem-budget", 0, "resident-bytes budget for store-backed tenants (snapshot-size proxy); past it idle ready tenants unload to stubs (0 = unlimited)")
	flag.BoolVar(&cfg.Pprof, "pprof", false, "mount net/http/pprof debug endpoints under /debug/pprof/")
	flag.StringVar(&cfg.ShardID, "shard-id", "", "shard identity stamped on responses (X-NL2SQL-Shard) and naming this instance's WAL in a shared -data-dir; use the advertised host:port for sticky routing")
	flag.BoolVar(&cfg.Router, "router", false, "serve the consistent-hash routing tier instead of a shard (requires -shards)")
	flag.StringVar(&cfg.Shards, "shards", "", "comma-separated shard addresses (host:port) the router proxies to")
	flag.DurationVar(&cfg.ProbeInterval, "replication-probe-interval", time.Second, "router health-probe cadence; a shard is ejected after 2 failed probes and readmitted after 1 pass")
	flag.DurationVar(&cfg.HedgeAfter, "hedge-after", 0, "router tail-hedging delay before duplicating a read to the replica successor (0 adapts to the observed p95, negative disables)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 1, "head-sampling probability for request traces (1 traces every request, 0 only requests arriving with a sampled traceparent, negative disables tracing entirely)")
	flag.DurationVar(&cfg.TraceSlow, "trace-slow", 250*time.Millisecond, "requests slower than this are retained in the slow-trace ring regardless of churn (error traces always are)")
	flag.BoolVar(&cfg.LLMFault, "llm-fault", false, "enable the LLM fault-injection layer and its /v1/faults control endpoint; brownout windows are opened via POST /v1/faults (chaos/soak testing)")
	flag.StringVar(&cfg.LogLevel, "log-level", "info", "minimum structured-log level: debug, info, warn, error")
	flag.StringVar(&cfg.LogFormat, "log-format", "text", "structured-log encoding: text or json")
	flag.Parse()

	if err := setupLogging(cfg.LogLevel, cfg.LogFormat); err != nil {
		log.Fatal(err)
	}
	a, err := newApp(cfg)
	if err != nil {
		slog.Error("startup failed", "err", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals...)
	defer stop()
	if err := a.run(ctx); err != nil {
		slog.Error("server exited", "err", err)
		os.Exit(1)
	}
}
