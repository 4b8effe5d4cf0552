package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/llm"
)

// Engine benchmarks: batch translation through core.Engine's worker pool.
// The paper's tables and figures are regenerated by `cmd/benchmarks -exp`.

var (
	envOnce sync.Once
	envInst *exp.Env
)

// benchEnv is the scale-0.12 environment the ungated engine benchmarks
// share, built on first use.
func benchEnv() *exp.Env {
	envOnce.Do(func() {
		envInst = exp.NewEnv(1, 0.12)
	})
	return envInst
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
// 4-worker engine per iteration. It builds its own corpus, so the
// committed numbers stay comparable.
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
