package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/spider"
)

// ExampleNew builds a PURPLE pipeline on the synthetic training split and
// asks its skeleton predictor for a dev question's top three skeletons.
func ExampleNew() {
	corpus := spider.GenerateSmall(77, 0.06)
	p := core.New(corpus.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	fmt.Println(p.Name())
	fmt.Println(len(p.Predictor().Predict(corpus.Dev.Examples[0].NL, 3)))
	// Output:
	// PURPLE(sim-chatgpt)
	// 3
}

// ExamplePipeline_Translate translates one dev task. Everything is seeded,
// so the translation is reproducible.
func ExamplePipeline_Translate() {
	corpus := spider.GenerateSmall(77, 0.06)
	p := core.New(corpus.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	e := corpus.Dev.Examples[0]
	res := p.Translate(e)
	fmt.Println(res.SQL == e.GoldSQL)
	fmt.Println(res.SQL != "" && res.InputTokens > 0 && res.DemosUsed > 0)
	// Output:
	// true
	// true
}

// ExampleEngine_TranslateBatch fans a batch of tasks across a worker pool.
// Results preserve input order and match the sequential path exactly, so
// parallelism never changes scores — only wall-clock time.
func ExampleEngine_TranslateBatch() {
	corpus := spider.GenerateSmall(77, 0.06)
	p := core.New(corpus.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	batch := corpus.Dev.Examples[:8]

	eng := core.NewEngine(p, 4)
	results, stats, err := eng.TranslateBatch(context.Background(), batch)
	if err != nil {
		fmt.Println(err)
		return
	}
	identical := true
	for i, e := range batch {
		if results[i] != p.Translate(e) {
			identical = false
		}
	}
	fmt.Println(identical)
	fmt.Println(stats.Completed, stats.InputTokens > 0)
	// Output:
	// true
	// 8 true
}

// ExampleNewEngine_cached wraps the LLM client in a sharded LRU cache: a
// repeated batch hits memory instead of the backend, and the cache is
// observationally transparent because clients are deterministic per request.
func ExampleNewEngine_cached() {
	corpus := spider.GenerateSmall(77, 0.06)
	cache := llm.NewCache(llm.NewSim(llm.ChatGPT), 1024)
	p := core.New(corpus.Train.Examples, cache, core.DefaultConfig())
	batch := corpus.Dev.Examples[:4]

	eng := core.NewEngine(p, 4)
	first, _, _ := eng.TranslateBatch(context.Background(), batch)
	second, _, _ := eng.TranslateBatch(context.Background(), batch)

	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
		}
	}
	st := cache.Stats()
	fmt.Println(same, st.Hits > 0, st.Misses > 0)
	// Output:
	// true true true
}
