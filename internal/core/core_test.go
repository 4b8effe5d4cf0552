package core

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/predictor"
	"repro/internal/prompt"
	"repro/internal/spider"
	"repro/internal/trace"
)

func pipelineFixture(t *testing.T, cfg Config) (*Pipeline, *spider.Corpus) {
	t.Helper()
	c := spider.GenerateSmall(77, 0.06)
	return New(c.Train.Examples, llm.NewSim(llm.ChatGPT), cfg), c
}

func scoreEM(t *testing.T, p *Pipeline, examples []*spider.Example) (em, ex float64) {
	t.Helper()
	var nem, nex int
	for _, e := range examples {
		res := p.Translate(e)
		if eval.ExactSetMatchSQL(res.SQL, e.GoldSQL) {
			nem++
		}
		if eval.ExecutionMatch(e.DB, res.SQL, e.GoldSQL) {
			nex++
		}
	}
	n := float64(len(examples))
	return 100 * float64(nem) / n, 100 * float64(nex) / n
}

func TestTranslateProducesExecutableSQL(t *testing.T) {
	p, c := pipelineFixture(t, DefaultConfig())
	for _, e := range c.Dev.Examples[:30] {
		res := p.Translate(e)
		if res.SQL == "" {
			t.Fatalf("empty translation for %q", e.NL)
		}
		if res.InputTokens <= 0 || res.OutputTokens <= 0 {
			t.Errorf("token accounting missing: %+v", res)
		}
	}
}

func TestTranslateDeterministic(t *testing.T) {
	p, c := pipelineFixture(t, DefaultConfig())
	e := c.Dev.Examples[0]
	a := p.Translate(e)
	b := p.Translate(e)
	if a.SQL != b.SQL {
		t.Errorf("translation not deterministic: %q vs %q", a.SQL, b.SQL)
	}
}

// TestTracedSelectSpan checks the select stage as a traced translation
// records it: the answer equals the untraced one, the span closes when
// Select returns (before prompt assembly, so before the LLM call starts),
// and its candidates attribute counts the demonstrations prompt assembly
// pulled — the ones used plus the first that did not fit the budget.
func TestTracedSelectSpan(t *testing.T) {
	p, c := pipelineFixture(t, DefaultConfig())
	tr := trace.New(trace.Config{Service: "test", Sample: 1})
	for _, e := range c.Dev.Examples[:10] {
		ctx, root := tr.StartRoot(context.Background(), "translate", trace.SpanContext{})
		got := p.TranslateContext(ctx, e)
		root.Finish()
		if want := p.Translate(e); got != want {
			t.Fatalf("task %d: traced %+v, untraced %+v", e.ID, got, want)
		}
		tj, ok := tr.Trace(root.Context().TraceID)
		if !ok {
			t.Fatalf("task %d: trace not recorded", e.ID)
		}
		spans := map[string]trace.SpanJSON{}
		for _, sp := range tj.Spans {
			spans[sp.Name] = sp
		}
		sel, llmSpan := spans["pipeline.select"], spans["llm.complete"]
		if cand := sel.Attrs["candidates"]; cand != int64(got.DemosUsed+1) {
			t.Errorf("task %d: candidates = %v, want demos used + 1 = %d", e.ID, cand, got.DemosUsed+1)
		}
		selEnd := sel.Start.Add(time.Duration(sel.DurationMs * float64(time.Millisecond)))
		if selEnd.After(llmSpan.Start) {
			t.Errorf("task %d: select span ends at %v, after llm.complete starts at %v", e.ID, selEnd, llmSpan.Start)
		}
	}
}

func TestBudgetControlsDemos(t *testing.T) {
	small := DefaultConfig()
	small.PromptTokens = 512
	large := DefaultConfig()
	large.PromptTokens = 3072
	ps, c := pipelineFixture(t, small)
	pl := New(c.Train.Examples, llm.NewSim(llm.ChatGPT), large)
	e := c.Dev.Examples[0]
	rs, rl := ps.Translate(e), pl.Translate(e)
	if rs.DemosUsed >= rl.DemosUsed {
		t.Errorf("larger budget should fit more demos: %d vs %d", rs.DemosUsed, rl.DemosUsed)
	}
	if rs.InputTokens > 512 {
		t.Errorf("input tokens %d exceed 512 budget", rs.InputTokens)
	}
}

// TestAblationOrdering verifies the Table 6 structure: removing
// demonstration selection hurts EM most, and the oracle skeleton does not
// hurt (within small-sample noise).
func TestAblationOrdering(t *testing.T) {
	base, c := pipelineFixture(t, DefaultConfig())
	dev := c.Dev.Examples
	if len(dev) > 60 {
		dev = dev[:60]
	}
	baseEM, _ := scoreEM(t, base, dev)

	noSel := DefaultConfig()
	noSel.UseSelection = false
	pNoSel := New(c.Train.Examples, llm.NewSim(llm.ChatGPT), noSel)
	noSelEM, _ := scoreEM(t, pNoSel, dev)
	if noSelEM >= baseEM {
		t.Errorf("-DemonstrationSelection should hurt EM: base=%.1f noSel=%.1f", baseEM, noSelEM)
	}

	oracle := DefaultConfig()
	oracle.OracleSkeleton = true
	pOracle := New(c.Train.Examples, llm.NewSim(llm.ChatGPT), oracle)
	oracleEM, _ := scoreEM(t, pOracle, dev)
	if oracleEM < baseEM-5 {
		t.Errorf("+OracleSkeleton should not hurt: base=%.1f oracle=%.1f", baseEM, oracleEM)
	}
}

func TestNoAdaptionLowersEX(t *testing.T) {
	base, c := pipelineFixture(t, DefaultConfig())
	dev := c.Dev.Examples
	if len(dev) > 60 {
		dev = dev[:60]
	}
	_, baseEX := scoreEM(t, base, dev)
	noAd := DefaultConfig()
	noAd.UseAdaption = false
	noAd.Consistency = 1
	pNoAd := New(c.Train.Examples, llm.NewSim(llm.ChatGPT), noAd)
	_, noAdEX := scoreEM(t, pNoAd, dev)
	if noAdEX >= baseEX {
		t.Errorf("-DatabaseAdaption should lower EX: base=%.1f noAd=%.1f", baseEX, noAdEX)
	}
}

func TestGPT4BeatsChatGPT(t *testing.T) {
	c := spider.GenerateSmall(78, 0.06)
	dev := c.Dev.Examples
	if len(dev) > 60 {
		dev = dev[:60]
	}
	p35 := New(c.Train.Examples, llm.NewSim(llm.ChatGPT), DefaultConfig())
	p4 := New(c.Train.Examples, llm.NewSim(llm.GPT4), DefaultConfig())
	em35, _ := scoreEM(t, p35, dev)
	em4, _ := scoreEM(t, p4, dev)
	if em4 < em35 {
		t.Errorf("PURPLE(GPT4)=%.1f should be at least PURPLE(ChatGPT)=%.1f", em4, em35)
	}
}

func TestAccessors(t *testing.T) {
	p, _ := pipelineFixture(t, DefaultConfig())
	if p.Classifier() == nil || p.Predictor() == nil {
		t.Error("accessors returned nil")
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

// TestWithModelsSharesRetrievalState: WithModels swaps the models and
// shares the receiver's rendered demonstrations, fill pool and hierarchy.
func TestWithModelsSharesRetrievalState(t *testing.T) {
	p, c := pipelineFixture(t, DefaultConfig())
	sub := c.Train.Examples[:len(c.Train.Examples)/2]
	clf, pred := classifier.Train(sub, classifier.UsedByExample(sub)), predictor.Train(sub)
	q := p.WithModels(clf, pred)
	if q.clf != clf || q.pred != pred || p.clf == clf || p.pred == pred {
		t.Fatal("WithModels did not swap the models on a copy")
	}
	if &q.demos[0] != &p.demos[0] || &q.allIdx[0] != &p.allIdx[0] || q.hier != p.hier || q.client != p.client {
		t.Error("WithModels did not share the rendered demonstrations, fill pool, hierarchy and client")
	}
}

// TestRenderDemoPrunesSchema: a demonstration's block carries its question
// and gold SQL over a schema pruned to what the SQL uses, so it is no longer
// than the block over the whole schema and leaves out a table the SQL does
// not name.
func TestRenderDemoPrunesSchema(t *testing.T) {
	c := spider.GenerateSmall(55, 0.06)
	for _, e := range c.Train.Examples {
		unused := ""
		for _, tb := range e.DB.Tables {
			if !strings.Contains(strings.ToLower(e.GoldSQL), strings.ToLower(tb.Name)) {
				unused = tb.Name
				break
			}
		}
		if unused == "" {
			continue
		}
		d, full := RenderDemo(e, classifier.UsedItems(e.Gold, e.DB)), prompt.NewDemo(e.DB, e.NL, e.GoldSQL)
		if len(d.Text) > len(full.Text) || d.Tokens != prompt.Tokens(d.Text) {
			t.Errorf("pruned block is %d bytes (%d tokens), the unpruned one %d", len(d.Text), d.Tokens, len(full.Text))
		}
		for _, want := range []string{prompt.QueryPrefix + " " + e.NL + "\n", prompt.SQLPrefix + " " + e.GoldSQL + "\n"} {
			if !strings.Contains(d.Text, want) {
				t.Errorf("block lacks %q:\n%s", want, d.Text)
			}
		}
		if line := "\n  " + unused + "("; strings.Contains(d.Text, line) || !strings.Contains(full.Text, line) {
			t.Errorf("table %s, which %q does not use, is in the pruned block:\n%s", unused, e.GoldSQL, d.Text)
		}
		return
	}
	t.Fatal("no training example leaves a table of its schema unused")
}

// TestSimConcurrentCompletionsMatchSequential replays the requests 64
// translations send on one cold simulated LLM from 8 goroutines at once,
// each starting at a different request: the grade memo they share must
// not change a response.
func TestSimConcurrentCompletionsMatchSequential(t *testing.T) {
	c := spider.GenerateSmall(1, 0.1)
	p := New(c.Train.Examples, llm.NewSim(llm.ChatGPT), DefaultConfig())
	reqs, _ := record(t, p, c.Dev.Examples[:64])
	want := make([]llm.Response, len(reqs))
	sequential := llm.NewSim(llm.ChatGPT)
	for i, r := range reqs {
		want[i] = sequential.Complete(r)
	}
	shared := llm.NewSim(llm.ChatGPT)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range reqs {
				i := (k + 8*g) % len(reqs)
				if got := shared.Complete(reqs[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, task %d: concurrent response %+v, sequential %+v", g, reqs[i].Task.ID, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
