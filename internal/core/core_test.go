package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/llm"
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
