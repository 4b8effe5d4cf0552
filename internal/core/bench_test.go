package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/selection"
	"repro/internal/spider"
)

// PURPLE's per-question stages on the paper-scale corpus (scale 1.0: 8,659
// training demonstrations), gated in BENCH_pipeline.txt. Both benchmarks
// cycle over the same first pipelineTasks dev tasks of the pipeline the
// server builds.

// pipelineTasks is how many dev tasks the pipeline benchmarks cycle over.
const pipelineTasks = 64

var (
	paperOnce  sync.Once
	paperPipe  *Pipeline
	paperTasks []*spider.Example
)

// paperPipeline builds the scale-1.0 pipeline once per test process.
func paperPipeline() (*Pipeline, []*spider.Example) {
	paperOnce.Do(func() {
		corpus := spider.GenerateSmall(1, 1.0)
		paperPipe = New(corpus.Train.Examples, llm.NewSim(llm.ChatGPT), DefaultConfig())
		paperTasks = corpus.Dev.Examples[:pipelineTasks]
	})
	return paperPipe, paperTasks
}

// BenchmarkPipelineSelect is demonstration selection as the pipeline runs
// it: Select over the automaton hierarchy for a dev task's top-k predicted
// skeletons (predicted once, up front), pulled by prompt.Build into the
// default 3,072-token prompt, with the random fill re-seeded per task.
func BenchmarkPipelineSelect(b *testing.B) {
	p, tasks := paperPipeline()
	preds := make([][][]string, len(tasks))
	for i, e := range tasks {
		for _, pr := range p.pred.Predict(e.NL, p.cfg.TopK) {
			preds[i] = append(preds[i], pr.Tokens)
		}
	}
	rng := rand.New(rand.NewSource(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(tasks)
		rng.Seed(int64(k))
		order := selection.Select(p.hier, preds[k], selection.Options{Policy: p.cfg.Policy, Rng: rng, FillPool: p.allIdx})
		pulled := func(yield func(prompt.Demo) bool) {
			for d := range order {
				if !yield(p.demos[d]) {
					return
				}
			}
		}
		if prompt.Build("", pulled, tasks[k].DB, tasks[k].NL, p.cfg.PromptTokens).DemosUsed == 0 {
			b.Fatal("no demonstration fits the budget")
		}
	}
}

// BenchmarkPipelineTranslate is one full TranslateContext.
func BenchmarkPipelineTranslate(b *testing.B) {
	p, tasks := paperPipeline()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.TranslateContext(ctx, tasks[i%len(tasks)]).SQL == "" {
			b.Fatal("empty translation")
		}
	}
}
