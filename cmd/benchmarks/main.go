// Command benchmarks regenerates the tables and figures of the PURPLE paper
// (see DESIGN.md for the per-experiment index), and doubles as the
// machine-readable performance harness for CI.
//
// Usage:
//
//	benchmarks -exp table4 -scale 0.2 -limit 200
//	benchmarks -exp all -workers 8
//	benchmarks -json [-short]       # executor/engine micro-benchmarks as JSON
//	benchmarks -json -set catalog   # tenant-catalog micro-benchmarks as JSON
//	benchmarks -json -set pipeline  # per-stage PURPLE pipeline benchmarks as JSON
//
// The -json mode runs a micro-benchmark set through testing.Benchmark and
// emits one JSON document (ns/op, allocs/op, B/op per benchmark) on stdout.
// -set selects the set: "executor" (default) covers the SQL executor and
// batch engine and is uploaded by CI as the BENCH_executor.json artifact;
// "catalog" covers multi-tenant registration, snapshot swap and the
// lock-free tenant-lookup hot path (BENCH_catalog.json artifact), sharing
// its fixtures with internal/catalog's own benchmarks; "router" covers the
// sharding tier — consistent-hash ring lookup/build, routing-key
// extraction and the full proxy hop against a loopback shard
// (BENCH_router.json artifact); "trace" covers the request-tracing layer:
// the recorded span lifecycle, the contractually allocation-free disabled
// and unsampled paths, and W3C traceparent parse/inject
// (BENCH_trace.json artifact); "pipeline" covers PURPLE's per-question
// stages on the paper-scale corpus — demonstration selection pulled into a
// budgeted prompt, and one full translation (BENCH_pipeline.json
// artifact). -short skips the
// corpus-building benchmarks for CI latency; workload sizes are identical
// either way so short and full numbers stay comparable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/benchfmt"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/router"
	"repro/internal/schema"
	"repro/internal/selection"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
	"repro/internal/trace"
)

func main() {
	var (
		which    = flag.String("exp", "all", "experiment: table1|table3|table4|table5|table6|fig9|fig10|fig11|fig12|all")
		scale    = flag.Float64("scale", 0.15, "corpus scale in (0,1]; 1.0 = the paper's full Table 3 sizes")
		limit    = flag.Int("limit", 0, "cap evaluated examples per run (0 = all)")
		seed     = flag.Int64("seed", 1, "corpus and pipeline seed")
		workers  = flag.Int("workers", 1, "translation worker pool size (>1 parallelizes; output is identical to -workers 1)")
		jsonMode = flag.Bool("json", false, "emit micro-benchmark results as JSON and exit")
		benchSet = flag.String("set", "executor", "with -json: benchmark set to run (executor|catalog|router|trace|pipeline)")
		short    = flag.Bool("short", false, "with -json: skip the corpus-building benchmarks (exec_ts_metric, engine_batch_translate); workload sizes are unchanged so numbers stay comparable")
	)
	flag.Parse()

	if *jsonMode {
		var err error
		switch *benchSet {
		case "executor":
			err = runJSONBenchmarks(*short)
		case "catalog":
			err = runCatalogBenchmarks()
		case "router":
			err = runRouterBenchmarks()
		case "trace":
			err = runTraceBenchmarks()
		case "pipeline":
			err = runPipelineBenchmarks()
		default:
			err = fmt.Errorf("unknown -set %q (want executor, catalog, router, trace or pipeline)", *benchSet)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building corpus and training substrate models (scale=%.2f)...\n", *scale)
	env := exp.NewEnv(*seed, *scale)
	fmt.Fprintf(os.Stderr, "environment ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	opts := exp.RunOptions{Limit: *limit, Workers: *workers}
	run := func(name string, fn func() string) {
		if *which != "all" && *which != name {
			return
		}
		t := time.Now()
		fmt.Println(fn())
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, time.Since(t).Round(time.Millisecond))
	}

	// The Figure 11/12 grids evaluate 20-24 configurations; cap their
	// per-cell example count so full-corpus runs stay affordable.
	gridOpts := opts
	if gridOpts.Limit == 0 || gridOpts.Limit > 150 {
		gridOpts.Limit = 150
	}

	run("table3", env.Table3)
	run("table1", func() string { return env.Table1(opts) })
	run("table4", func() string { return env.Table4(opts) })
	run("fig9", func() string { return env.Figure9(opts) })
	run("fig10", func() string { return env.Figure10(opts) })
	run("fig11", func() string { return env.Figure11(gridOpts) })
	run("fig12", func() string { return env.Figure12(gridOpts) })
	run("table5", func() string { return env.Table5(opts) })
	run("table6", func() string { return env.Table6(opts) })
}

// ---- JSON micro-benchmark mode ----
// The document schema lives in internal/benchfmt, shared with cmd/benchdiff
// (the CI regression gate) and the loadgen report header.

func runJSONBenchmarks(short bool) error {
	// Fixture and sizes shared with internal/sqlexec/bench_test.go: the
	// artifact must measure exactly the workloads the in-repo benchmarks
	// measure. -short skips the corpus-building benchmarks rather than
	// shrinking workloads, so short and full numbers stay comparable.
	db := benchfix.DB(benchfix.ExecRows)
	joinHeavy := benchfix.JoinHeavySQL
	inSub := benchfix.InSubquerySQL

	execBench := func(sql string, opts sqlexec.PlanOptions) func(*testing.B) {
		sel := sqlir.MustParse(sql)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sqlexec.ExecOptions(db, sel, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	reexecDB := benchfix.DB(benchfix.ReexecRows)
	var instances []*schema.Database
	for i := 0; i < benchfix.ReexecInstances; i++ {
		instances = append(instances, spider.Reinstantiate(reexecDB, int64(i+1)))
	}
	preparedReexec := func(b *testing.B) {
		b.ReportAllocs()
		stmt, err := sqlexec.PrepareSQL(reexecDB, joinHeavy)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, inst := range instances {
				if _, err := stmt.Exec(inst); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	replanReexec := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, inst := range instances {
				if _, err := sqlexec.ExecSQL(inst, joinHeavy); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	benches := []namedBench{
		{"exec_scan_filter", execBench(benchfix.ScanFilterSQL, sqlexec.PlanOptions{})},
		{"exec_hash_join", execBench(benchfix.TwoTableSQL, sqlexec.PlanOptions{})},
		{"exec_nested_loop_join", execBench(benchfix.TwoTableSQL, sqlexec.Unoptimized())},
		{"exec_join_heavy", execBench(joinHeavy, sqlexec.PlanOptions{})},
		{"exec_join_heavy_unoptimized", execBench(joinHeavy, sqlexec.Unoptimized())},
		{"exec_in_subquery_hash", execBench(inSub, sqlexec.PlanOptions{})},
		{"exec_in_subquery_linear", execBench(inSub, sqlexec.PlanOptions{NoHashSets: true})},
		{"exec_group_by", execBench(benchfix.GroupBySQL, sqlexec.PlanOptions{})},
		{"prepared_reexec_ts", preparedReexec},
		{"replan_reexec_ts", replanReexec},
	}

	if !short {
		benches = append(benches,
			namedBench{"exec_ts_metric", tsMetricBench()},
			namedBench{"engine_batch_translate", engineBatchBench()},
		)
	}
	return emitReport(short, benches)
}

type namedBench struct {
	name string
	fn   func(*testing.B)
}

// emitReport runs the benchmark list through testing.Benchmark and writes
// the JSON document to stdout.
func emitReport(short bool, benches []namedBench) error {
	report := benchfmt.Report{Header: benchfmt.NewHeader(), Short: short}
	for _, bn := range benches {
		fmt.Fprintf(os.Stderr, "running %s...\n", bn.name)
		r := testing.Benchmark(bn.fn)
		if r.N == 0 {
			// testing.Benchmark swallows b.Fatal; a zeroed result means the
			// benchmark body failed. Fail the run rather than upload a
			// garbage trajectory point.
			return fmt.Errorf("benchmark %s failed (zero iterations)", bn.name)
		}
		report.Benchmarks = append(report.Benchmarks, benchfmt.Result{
			Name:        bn.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// runCatalogBenchmarks measures the multi-tenant catalog: registration
// (validation + warming-snapshot construction), re-registration swap,
// single-threaded and 16-goroutine lock-free tenant lookup, and
// question→demo oracle resolution. Fixtures come from internal/benchfix so
// the numbers match internal/catalog's own benchmarks.
func runCatalogBenchmarks() error {
	fmt.Fprintln(os.Stderr, "training catalog fallback models...")
	boot := spider.GenerateSmall(7, 0.03)
	fallback := catalog.NewFallback(boot.Train.Examples)
	demos := func() []catalog.Demo {
		specs := benchfix.TenantDemos()
		out := make([]catalog.Demo, len(specs))
		for i, d := range specs {
			out[i] = catalog.Demo{NL: d.NL, SQL: d.SQL}
		}
		return out
	}()
	newCatalog := func(b *testing.B) *catalog.Catalog {
		// A build manager large enough that no measured registration hits
		// ErrBusy; it drains after the catalog closes.
		builds := jobs.NewManager(nil, jobs.Config{Runners: 8, Queue: 1 << 20, TTL: time.Minute})
		c, err := catalog.New(catalog.Config{
			Client:     llm.NewSim(llm.ChatGPT),
			Fallback:   fallback,
			MaxTenants: 1 << 20,
			Jobs:       builds,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			c.Close(ctx)
			builds.Shutdown(ctx)
		})
		return c
	}
	seed := func(b *testing.B, c *catalog.Catalog, n int) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("t%d", i)
			if _, err := c.Register(catalog.Registration{DB: benchfix.TenantDB(names[i]), Demos: demos}); err != nil {
				b.Fatal(err)
			}
		}
		return names
	}

	benches := []namedBench{
		{"catalog_register", func(b *testing.B) {
			c := newCatalog(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Register(catalog.Registration{DB: benchfix.TenantDB(fmt.Sprintf("bench%d", i)), Demos: demos}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"catalog_reregister_swap", func(b *testing.B) {
			c := newCatalog(b)
			seed(b, c, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Reregister(catalog.Registration{DB: benchfix.TenantDB("t0"), Demos: demos}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"catalog_lookup", func(b *testing.B) {
			c := newCatalog(b)
			seed(b, c, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tn, ok := c.Lookup("t7")
				if !ok || tn.Snapshot() == nil {
					b.Fatal("lookup failed")
				}
			}
		}},
		{"catalog_lookup_parallel16", func(b *testing.B) {
			c := newCatalog(b)
			names := seed(b, c, 16)
			b.SetParallelism(16)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					tn, ok := c.Lookup(names[i&15])
					i++
					if !ok || tn.Snapshot() == nil {
						b.Fatal("lookup failed")
					}
				}
			})
		}},
		{"catalog_oracle_match", func(b *testing.B) {
			c := newCatalog(b)
			seed(b, c, 1)
			tn, _ := c.Lookup("t0")
			snap := tn.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := snap.Oracle("How many items does each shop sell?"); !ok {
					b.Fatal("oracle miss")
				}
			}
		}},
	}
	return emitReport(false, benches)
}

// runRouterBenchmarks measures the horizontal-sharding tier. ring_lookup is
// the routing hot path and must stay allocation-free — CI's benchdiff gate
// pins its allocs/op at zero. proxy_roundtrip measures one full client →
// router → shard hop against a loopback backend; direct_roundtrip is the
// same client → backend call without the router, so the difference is the
// proxy overhead the tier adds per request.
func runRouterBenchmarks() error {
	shards := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080"}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant_db_%d", i)
	}

	pathReq, err := http.NewRequest(http.MethodPost, "http://router/v1/databases/concert_singer/sql", nil)
	if err != nil {
		return err
	}
	bodyReq, err := http.NewRequest(http.MethodPost, "http://router/v1/translate", nil)
	if err != nil {
		return err
	}
	sniffBody := []byte(`{"database":"concert_singer","question":"How many singers are there?"}`)

	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"sql":"SELECT count(*) FROM singer"}`))
	}))
	defer backend.Close()
	rt, err := router.New(router.Config{
		Shards:        []string{backend.Listener.Addr().String()},
		ProbeInterval: -1, // no background loop inside a benchmark
		HedgeAfter:    -1,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	hc := &http.Client{}
	roundtrip := func(base string) func(*testing.B) {
		url := base + "/v1/databases/concert_singer"
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := hc.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}

	benches := []namedBench{
		{"ring_lookup", func(b *testing.B) {
			ring := router.BuildRing(shards, router.DefaultVNodes)
			b.ReportAllocs()
			b.ResetTimer()
			var sink string
			for i := 0; i < b.N; i++ {
				sink = ring.Lookup(keys[i&255])
			}
			if sink == "" {
				b.Fatal("empty placement")
			}
		}},
		{"ring_lookup2", func(b *testing.B) {
			ring := router.BuildRing(shards, router.DefaultVNodes)
			b.ReportAllocs()
			b.ResetTimer()
			var sink string
			for i := 0; i < b.N; i++ {
				sink, _ = ring.Lookup2(keys[i&255])
			}
			if sink == "" {
				b.Fatal("empty placement")
			}
		}},
		{"ring_build_4x160", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if router.BuildRing(shards, router.DefaultVNodes) == nil {
					b.Fatal("nil ring")
				}
			}
		}},
		{"routing_key_path", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if router.RoutingKey(pathReq, nil) != "concert_singer" {
					b.Fatal("wrong key")
				}
			}
		}},
		{"routing_key_body_sniff", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if router.RoutingKey(bodyReq, sniffBody) != "concert_singer" {
					b.Fatal("wrong key")
				}
			}
		}},
		{"proxy_roundtrip", roundtrip(front.URL)},
		{"direct_roundtrip", roundtrip(backend.URL)},
	}
	return emitReport(false, benches)
}

// runTraceBenchmarks measures the request-tracing layer. The three *_noop /
// *_unsampled benchmarks are the overhead a request pays when tracing is off
// or the head-sampling coin says no — CI's benchdiff gate pins their
// allocs/op at zero, the package's contractual promise. span_start_finish is
// the recorded path: a root plus one child captured into the rings.
// traceparent_parse and traceparent_inject are the per-hop propagation cost
// the router pays on every proxied request.
func runTraceBenchmarks() error {
	bg := context.Background()
	benches := []namedBench{
		{"span_start_finish", func(b *testing.B) {
			tr := trace.New(trace.Config{Service: "bench", Sample: 1, Slow: time.Hour, RecentCap: 64})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, root := tr.StartRoot(bg, "bench", trace.SpanContext{})
				_, sp := trace.StartSpan(ctx, "op")
				sp.Finish()
				root.Finish()
			}
		}},
		{"span_disabled_noop", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, sp := trace.StartSpan(bg, "op")
				sp.SetAttrs(trace.Str("k", "v"))
				sp.Finish()
			}
		}},
		{"span_nil_tracer_noop", func(b *testing.B) {
			var tr *trace.Tracer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, sp := tr.StartRoot(bg, "op", trace.SpanContext{})
				sp.Finish()
			}
		}},
		{"span_unsampled_root", func(b *testing.B) {
			tr := trace.New(trace.Config{Service: "bench", Sample: 0})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, sp := tr.StartRoot(bg, "op", trace.SpanContext{})
				sp.Finish()
			}
		}},
		{"traceparent_parse", func(b *testing.B) {
			hdr := trace.NewSpanContext(true).Header()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := trace.ParseTraceparent(hdr); !ok {
					b.Fatal("parse failed")
				}
			}
		}},
		{"traceparent_inject", func(b *testing.B) {
			tr := trace.New(trace.Config{Service: "bench", Sample: 1, Slow: time.Hour})
			ctx, root := tr.StartRoot(bg, "bench", trace.SpanContext{})
			defer root.Finish()
			h := make(http.Header, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trace.Inject(ctx, h)
			}
		}},
	}
	return emitReport(false, benches)
}

// pipelineTasks is how many dev tasks the pipeline benchmarks cycle over.
const pipelineTasks = 64

// runPipelineBenchmarks measures PURPLE's per-question stages on the
// paper-scale corpus (scale 1.0: 8,659 training demonstrations), building
// the pipeline the server builds. pipeline_select is demonstration
// selection as the pipeline runs it: Select over the automaton hierarchy
// for a dev task's top-k predicted skeletons (predicted once, up front),
// pulled by prompt.Build into a 3,072-token prompt, with the random fill
// re-seeded per task. pipeline_translate is one full TranslateContext.
// Both cycle over the same first pipelineTasks dev tasks.
func runPipelineBenchmarks() error {
	fmt.Fprintln(os.Stderr, "building the scale-1.0 corpus and pipeline...")
	corpus := spider.GenerateSmall(1, 1.0)
	cfg := core.DefaultConfig()
	p := core.New(corpus.Train.Examples, llm.NewSim(llm.ChatGPT), cfg)
	tasks := corpus.Dev.Examples[:pipelineTasks]
	preds := make([][][]string, len(tasks))
	for i, e := range tasks {
		for _, pr := range p.Predictor().Predict(e.NL, cfg.TopK) {
			preds[i] = append(preds[i], pr.Tokens)
		}
	}
	demos := p.Demos()
	pool := make([]int, len(demos))
	for i := range pool {
		pool[i] = i
	}

	benches := []namedBench{
		{"pipeline_select", func(b *testing.B) {
			rng := rand.New(rand.NewSource(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(tasks)
				rng.Seed(int64(k))
				order := selection.Select(p.Hierarchy(), preds[k], selection.Options{Policy: cfg.Policy, Rng: rng, FillPool: pool})
				pulled := func(yield func(prompt.Demo) bool) {
					for d := range order {
						if !yield(demos[d]) {
							return
						}
					}
				}
				if prompt.Build("", pulled, tasks[k].DB, tasks[k].NL, cfg.PromptTokens).DemosUsed == 0 {
					b.Fatal("no demonstration fits the budget")
				}
			}
		}},
		{"pipeline_translate", func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.TranslateContext(ctx, tasks[i%len(tasks)]).SQL == "" {
					b.Fatal("empty translation")
				}
			}
		}},
	}
	return emitReport(false, benches)
}

// tsMetricBench measures eval.TestSuiteMatch end to end (prepared TS path).
func tsMetricBench() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		c := spider.GenerateSmall(123, 0.05)
		ex := c.Dev.Examples[0]
		suite := eval.BuildSuite(ex.DB, []*sqlir.Select{ex.Gold}, eval.DefaultSuiteConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !eval.TestSuiteMatch(ex.DB, suite, ex.GoldSQL, ex.GoldSQL) {
				b.Fatal("gold must match itself")
			}
		}
	}
}

// engineBatchBench measures the concurrent batch-translation engine over a
// small corpus slice.
func engineBatchBench() func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		env := exp.NewEnv(1, 0.05)
		p := env.Purple(llm.ChatGPT)
		n := 24
		if n > len(env.Corpus.Dev.Examples) {
			n = len(env.Corpus.Dev.Examples)
		}
		examples := env.Corpus.Dev.Examples[:n]
		eng := core.NewEngine(p, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.TranslateBatch(context.Background(), examples); err != nil {
				b.Fatal(err)
			}
		}
	}
}
