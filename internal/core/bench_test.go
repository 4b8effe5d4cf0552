package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/adaption"
	"repro/internal/classifier"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/selection"
	"repro/internal/spider"
)

// PURPLE's per-question stages on the paper-scale corpus (scale 1.0: 8,659
// training demonstrations), and the pipeline build a server pays at boot,
// gated in BENCH_pipeline.txt. Every per-question benchmark cycles over the
// same first pipelineTasks dev tasks of the pipeline the server builds.

// pipelineTasks is how many dev tasks the pipeline benchmarks cycle over.
const pipelineTasks = 64

var (
	corpusOnce  sync.Once
	paperCorpus *spider.Corpus

	paperOnce  sync.Once
	paperPipe  *Pipeline
	paperTasks []*spider.Example
)

// paperTrain generates the scale-1.0 corpus once per test process and
// returns its training split.
func paperTrain() []*spider.Example {
	corpusOnce.Do(func() { paperCorpus = spider.GenerateSmall(1, 1.0) })
	return paperCorpus.Train.Examples
}

// paperPipeline builds the scale-1.0 pipeline once per test process.
func paperPipeline() (*Pipeline, []*spider.Example) {
	paperOnce.Do(func() {
		paperPipe = New(paperTrain(), llm.NewSim(llm.ChatGPT), DefaultConfig())
		paperTasks = paperCorpus.Dev.Examples[:pipelineTasks]
	})
	return paperPipe, paperTasks
}

// BenchmarkPipelineNew is the pipeline build a server pays at boot: New
// over the paper-scale training split, training the classifier and the
// predictor, building the automaton hierarchy and rendering every
// demonstration once. The corpus is generated before the timer starts
// (BenchmarkCorpusGenerate in internal/spider gates that).
func BenchmarkPipelineNew(b *testing.B) {
	train := paperTrain()
	client := llm.NewSim(llm.ChatGPT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(New(train, client, DefaultConfig()).demos) != len(train) {
			b.Fatal("a demonstration was not rendered")
		}
	}
}

// BenchmarkPipelinePrune is schema pruning: the classifier keeps the
// tables and columns a dev task's question needs, with the pipeline's
// pruning configuration.
func BenchmarkPipelinePrune(b *testing.B) {
	p, tasks := paperPipeline()
	cfg := p.pruneConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := tasks[i%len(tasks)]
		if len(classifier.Prune(p.clf, e.NL, e.DB, cfg).DB.Tables) == 0 {
			b.Fatal("every table pruned")
		}
	}
}

// BenchmarkPipelinePredict is skeleton prediction: the top-k skeletons for
// a dev task's question.
func BenchmarkPipelinePredict(b *testing.B) {
	p, tasks := paperPipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.pred.Predict(tasks[i%len(tasks)].NL, p.cfg.TopK)) != p.cfg.TopK {
			b.Fatal("short beam")
		}
	}
}

// BenchmarkPipelineSelect is demonstration selection and prompt assembly as
// the pipeline runs them: Select over the automaton hierarchy for a dev
// task's top-k predicted skeletons (predicted once, up front), re-seeding
// the random fill per task, and a prompt.Builder adding the pre-rendered
// demonstration blocks that fit the default 3,072-token prompt.
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
		built := prompt.NewBuilder("", tasks[k].DB, tasks[k].NL, p.cfg.PromptTokens)
		for d := range order {
			if !built.Add(p.demos[d]) {
				break
			}
		}
		if built.Result().DemosUsed == 0 {
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

// recordingClient forwards to its LLM client and keeps the last request
// and the last response's completions.
type recordingClient struct {
	llm.Client
	lastReq llm.Request
	last    []string
}

func (r *recordingClient) Complete(req llm.Request) llm.Response {
	resp := r.Client.Complete(req)
	r.lastReq, r.last = req, resp.SQLs
	return resp
}

// record translates each task with p and returns the LLM request each
// translation sent and the completions it got back.
func record(tb testing.TB, p *Pipeline, tasks []*spider.Example) ([]llm.Request, [][]string) {
	tb.Helper()
	rec := &recordingClient{Client: p.client}
	recorder := *p
	recorder.client = rec
	reqs := make([]llm.Request, len(tasks))
	samples := make([][]string, len(tasks))
	for i, e := range tasks {
		recorder.Translate(e)
		reqs[i], samples[i] = rec.lastReq, rec.last
		if len(samples[i]) != p.cfg.Consistency {
			tb.Fatalf("task %d: %d completions", e.ID, len(samples[i]))
		}
	}
	return reqs, samples
}

// BenchmarkPipelineComplete is the LLM call: the pipeline's simulated LLM
// answering the request a dev task's translation sends (its 3,072-token
// prompt, 30 samples), recorded once from the same pipeline. Recording
// warms the simulator's grade memo, as a shard's first questions do.
func BenchmarkPipelineComplete(b *testing.B) {
	p, tasks := paperPipeline()
	reqs, _ := record(b, p, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.client.Complete(reqs[i%len(reqs)]).SQLs) != p.cfg.Consistency {
			b.Fatal("short response")
		}
	}
}

// BenchmarkPipelineAdapt is database adaption and the execution-consistency
// vote over a dev task's 30 sampled completions, recorded once from a
// translation by the same pipeline. The vote stops once it is decided, so
// it adapts and executes about one of a task's four distinct candidates.
func BenchmarkPipelineAdapt(b *testing.B) {
	p, tasks := paperPipeline()
	_, samples := record(b, p, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(tasks)
		if v, ok := adaption.Vote(tasks[k].DB, samples[k], true); ok && v.SQL == "" {
			b.Fatal("empty winning candidate")
		}
	}
}
