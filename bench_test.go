package repro

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/llm"
)

// Benchmarks: one per table and figure of the paper's evaluation section.
// Each benchmark evaluates the relevant strategies over the dev (or
// variant) split at a reduced corpus scale and reports accuracy metrics via
// b.ReportMetric, printing the regenerated table once per run. Scale and
// evaluation limits are tunable:
//
//	go test -bench=Table4 -benchtime=1x -bench-scale=0.2 -bench-limit=400
//
// Full-paper-scale regeneration is `cmd/benchmarks -scale 1`.

var (
	benchScale = flag.Float64("bench-scale", 0.12, "corpus scale for benchmarks")
	benchLimit = flag.Int("bench-limit", 150, "examples evaluated per strategy")
)

var (
	envOnce sync.Once
	envInst *exp.Env
)

func benchEnv() *exp.Env {
	envOnce.Do(func() {
		envInst = exp.NewEnv(1, *benchScale)
	})
	return envInst
}

func opts() exp.RunOptions { return exp.RunOptions{Limit: *benchLimit} }

// report runs fn once per benchmark iteration and prints the regenerated
// artifact on the first iteration.
func report(b *testing.B, fn func() string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out := fn()
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkTable1_BaselineAccuracy regenerates Table 1: EM/EX of the prior
// LLM-based approaches on Spider dev.
func BenchmarkTable1_BaselineAccuracy(b *testing.B) {
	env := benchEnv()
	report(b, func() string { return env.Table1(opts()) })
}

// BenchmarkTable3_BenchmarkStats regenerates Table 3: corpus statistics.
func BenchmarkTable3_BenchmarkStats(b *testing.B) {
	env := benchEnv()
	report(b, env.Table3)
}

// BenchmarkTable4_OverallAccuracy regenerates Table 4: EM/EX/TS for
// PLM-based, LLM-based and PURPLE rows.
func BenchmarkTable4_OverallAccuracy(b *testing.B) {
	env := benchEnv()
	report(b, func() string { return env.Table4(opts()) })
}

// BenchmarkFigure9_HardnessBreakdown regenerates Figure 9: EM/EX by SQL
// hardness bucket.
func BenchmarkFigure9_HardnessBreakdown(b *testing.B) {
	env := benchEnv()
	report(b, func() string { return env.Figure9(opts()) })
}

// BenchmarkFigure10_Generalization regenerates Figure 10: EM/EX on
// Spider-DK / Spider-SYN / Spider-Realistic.
func BenchmarkFigure10_Generalization(b *testing.B) {
	env := benchEnv()
	report(b, func() string { return env.Figure10(opts()) })
}

// BenchmarkFigure11_BudgetGrid regenerates Figure 11: the len × num budget
// grid with token accounting.
func BenchmarkFigure11_BudgetGrid(b *testing.B) {
	env := benchEnv()
	o := opts()
	if o.Limit > 60 {
		o.Limit = 60 // 20 grid cells; keep the grid affordable
	}
	report(b, func() string { return env.Figure11(o) })
}

// BenchmarkFigure12_SelectionRobustness regenerates Figure 12: selection
// policy and skeleton-noise robustness.
func BenchmarkFigure12_SelectionRobustness(b *testing.B) {
	env := benchEnv()
	o := opts()
	if o.Limit > 60 {
		o.Limit = 60 // 24 configurations
	}
	report(b, func() string { return env.Figure12(o) })
}

// BenchmarkTable5_LLMComparison regenerates Table 5: ChatGPT vs GPT4 per
// strategy.
func BenchmarkTable5_LLMComparison(b *testing.B) {
	env := benchEnv()
	report(b, func() string { return env.Table5(opts()) })
}

// BenchmarkTable6_Ablation regenerates Table 6: the module ablations.
func BenchmarkTable6_Ablation(b *testing.B) {
	env := benchEnv()
	report(b, func() string { return env.Table6(opts()) })
}

// BenchmarkEngineBatch measures batch-translation throughput across
// worker-pool sizes (engineering metric): the pipeline is CPU-bound and
// deterministic, so throughput should scale near-linearly with workers up to
// the core count.
func BenchmarkEngineBatch(b *testing.B) {
	env := benchEnv()
	p := env.Purple(llm.ChatGPT)
	dev := env.Corpus.Dev.Examples
	if len(dev) > 100 {
		dev = dev[:100]
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := core.NewEngine(p, w)
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.TranslateBatch(context.Background(), dev); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(dev)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkEngineBatchTranslate is the gated batch-engine benchmark
// (BENCH_executor.txt): 24 dev tasks of a scale-0.05 corpus through a
// 4-worker engine per iteration. It builds its own corpus, independent of
// -bench-scale, so the committed numbers stay comparable.
func BenchmarkEngineBatchTranslate(b *testing.B) {
	b.ReportAllocs()
	env := exp.NewEnv(1, 0.05)
	p := env.Purple(llm.ChatGPT)
	examples := env.Corpus.Dev.Examples
	if len(examples) > 24 {
		examples = examples[:24]
	}
	eng := core.NewEngine(p, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.TranslateBatch(context.Background(), examples); err != nil {
			b.Fatal(err)
		}
	}
}

// latencyClient adds a fixed per-call delay to an inner client, modeling the
// network round-trip of a real LLM backend.
type latencyClient struct {
	inner llm.Client
	delay time.Duration
}

func (l *latencyClient) Name() string { return l.inner.Name() }
func (l *latencyClient) Complete(req llm.Request) llm.Response {
	time.Sleep(l.delay)
	return l.inner.Complete(req)
}

// BenchmarkEngineBatchLatencyBound measures the regime the engine is built
// for: a remote LLM backend with per-call latency. Workers overlap the waits,
// so throughput scales near-linearly with the pool size even on one core
// (the CPU-bound BenchmarkEngineBatch above only scales with physical cores).
func BenchmarkEngineBatchLatencyBound(b *testing.B) {
	env := benchEnv()
	client := &latencyClient{inner: llm.NewSim(llm.ChatGPT), delay: 2 * time.Millisecond}
	p := env.PurpleWithClient(client, core.DefaultConfig())
	dev := env.Corpus.Dev.Examples
	if len(dev) > 48 {
		dev = dev[:48]
	}
	for _, w := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := core.NewEngine(p, w)
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.TranslateBatch(context.Background(), dev); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(dev)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkCachedEngineBatch repeats the same batch through a cache-wrapped
// LLM client: after the warm-up run every self-consistency call is a memory
// hit, so this measures the repeated-benchmark-run regime the cache targets.
// The hit rate is reported as a metric and must be nonzero.
func BenchmarkCachedEngineBatch(b *testing.B) {
	env := benchEnv()
	cache := llm.NewCache(llm.NewSim(llm.ChatGPT), 1<<16)
	p := env.PurpleWithClient(cache, core.DefaultConfig())
	dev := env.Corpus.Dev.Examples
	if len(dev) > 100 {
		dev = dev[:100]
	}
	eng := core.NewEngine(p, 8)
	if _, _, err := eng.TranslateBatch(context.Background(), dev); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.TranslateBatch(context.Background(), dev); err != nil {
			b.Fatal(err)
		}
	}
	st := cache.Stats()
	b.ReportMetric(100*float64(st.Hits)/float64(st.Hits+st.Misses), "hit%")
	if st.Hits == 0 {
		b.Fatal("expected cache hits on repeated identical runs")
	}
}
