// Command nl2sql-loadgen drives a running nl2sql-server with configurable
// HTTP load and emits a machine-readable JSON report (throughput, error
// rate, p50/p95/p99 latency) under the benchfmt provenance header.
//
//	nl2sql-server -addr :8080 &
//	nl2sql-loadgen -url http://localhost:8080 -duration 10s -workers 16
//	nl2sql-loadgen -rate 200 -duration 30s -mix translate=1,execute=3
//	nl2sql-loadgen -tenants 4 -duration 10s        # multi-tenant catalog path
//
// CI runs it as a smoke gate:
//
//	nl2sql-loadgen -duration 5s -mix translate=1,execute=1 \
//	    -max-error-rate 0 -check-metrics
//
// -max-error-rate fails the process (exit 2) when the aggregate error rate
// exceeds the bound; -check-metrics fails it (exit 3) unless the server's
// /v1/metrics parses as Prometheus text and its http_requests_total sum
// covers every request the generator sent.
//
// -scenario switches the tool from a single homogeneous run to a declarative
// multi-phase plan (ramp, steady, spike, churn, register-storm,
// saturate-jobs) with per-phase SLO assertions and optional LLM brownout
// windows (server started with -llm-fault). The report becomes the scenario
// result; a violated SLO exits 4:
//
//	nl2sql-loadgen -scenario scenarios/soak-short.json -url http://localhost:8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		url        = flag.String("url", "http://localhost:8080", "server base URL; a comma-separated list fans requests round-robin across equivalent fronts (e.g. redundant routers)")
		duration   = flag.Duration("duration", 10*time.Second, "how long to generate load")
		workers    = flag.Int("workers", 8, "closed-loop concurrency")
		rate       = flag.Float64("rate", 0, "open-loop request rate in req/s (0 = closed loop)")
		inflight   = flag.Int("max-inflight", 256, "open-loop in-flight bound; excess dispatches are dropped")
		mixFlag    = flag.String("mix", "", `request mix weights, e.g. "translate=4,execute=4,batch=1,jobs=1" (default = that)`)
		tasks      = flag.Int("tasks", 16, "dev task-id range for translate/batch/jobs")
		batchSize  = flag.Int("batch-size", 8, "tasks per /v1/batch and /v1/jobs request")
		tenants    = flag.Int("tenants", 0, "register N synthetic tenant databases and drive the multi-tenant path")
		seed       = flag.Int64("seed", 1, "request-mix seed")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		traceFrac  = flag.Float64("trace-sample", 0, "stamp this fraction of requests with a sampled W3C traceparent; their slowest trace IDs land in the report (0 disables)")
		slowTraces = flag.Int("slow-traces", 5, "how many of the slowest sampled requests to report per op")
		waitReady  = flag.Duration("wait-ready", 30*time.Second, "wait this long for /healthz before starting (0 = don't wait)")
		out        = flag.String("out", "", "write the JSON report here instead of stdout")
		maxErrRate = flag.Float64("max-error-rate", -1, "exit 2 when the aggregate error rate exceeds this (-1 disables)")
		checkMet   = flag.Bool("check-metrics", false, "after the run, verify /v1/metrics parses and reflects the request count (exit 3 on failure)")
		scenPath   = flag.String("scenario", "", "run this declarative multi-phase scenario file instead of a single homogeneous load (exit 4 on SLO violation)")
	)
	flag.Parse()

	if *scenPath != "" {
		runScenario(*scenPath, *url, *waitReady, *out)
		return
	}

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fatal(2, "%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *waitReady > 0 {
		for _, target := range strings.Split(*url, ",") {
			if target = strings.TrimSpace(target); target == "" {
				continue
			}
			waitCtx, cancel := context.WithTimeout(ctx, *waitReady)
			err := loadgen.WaitReady(waitCtx, nil, target)
			cancel()
			if err != nil {
				fatal(2, "%v", err)
			}
		}
	}

	report, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:     *url,
		Duration:    *duration,
		Workers:     *workers,
		Rate:        *rate,
		MaxInFlight: *inflight,
		Mix:         mix,
		Tasks:       *tasks,
		BatchSize:   *batchSize,
		Tenants:     *tenants,
		Seed:        *seed,
		Timeout:     *timeout,
		TraceSample: *traceFrac,
		SlowTraces:  *slowTraces,
	})
	if err != nil {
		fatal(2, "%v", err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(2, "%v", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(2, "%v", err)
	}

	all := report.All()
	fmt.Fprintf(os.Stderr, "loadgen: %d requests in %.1fs (%.1f req/s), %d errors, %d non-2xx, p50=%.1fms p95=%.1fms p99=%.1fms\n",
		all.Requests, report.DurationSeconds, all.ThroughputRPS,
		all.Errors, all.Non2xx, all.LatencyMs.P50, all.LatencyMs.P95, all.LatencyMs.P99)

	if *maxErrRate >= 0 && all.ErrorRate > *maxErrRate {
		fatal(2, "error rate %.4f exceeds the %.4f bound (%d errors, %d non-2xx of %d requests)",
			all.ErrorRate, *maxErrRate, all.Errors, all.Non2xx, all.Requests)
	}
	if *checkMet {
		// Transport-level errors never reached the server, so they cannot
		// appear in its http_requests_total; only delivered requests are
		// owed an increment.
		if err := loadgen.CheckMetrics(nil, *url, all.Requests-all.Errors); err != nil {
			fatal(3, "%v", err)
		}
		fmt.Fprintln(os.Stderr, "loadgen: /v1/metrics parses and covers the offered load")
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nl2sql-loadgen: "+format+"\n", args...)
	os.Exit(code)
}
