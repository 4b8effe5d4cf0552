package llm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/prompt"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// taskOfClass finds a dev example of the given composition class.
func taskOfClass(t *testing.T, c *spider.Corpus, class spider.CompositionClass) *spider.Example {
	t.Helper()
	for _, e := range c.Dev.Examples {
		if e.Class == class {
			return e
		}
	}
	t.Skipf("no %s example in small corpus", class)
	return nil
}

func corpus() *spider.Corpus { return spider.GenerateSmall(21, 0.08) }

// buildPrompt renders a minimal prompt, optionally embedding demo SQLs.
func buildPrompt(e *spider.Example, demoSQLs ...string) prompt.Text {
	b := prompt.NewBuilder("", e.DB, e.NL, 0)
	for _, sql := range demoSQLs {
		b.Add(prompt.NewDemo(e.DB, "demo question", sql))
	}
	return b.Result().Text
}

func TestDeterministicCompletion(t *testing.T) {
	c := corpus()
	e := c.Dev.Examples[0]
	sim := NewSim(ChatGPT)
	req := Request{Prompt: buildPrompt(e), N: 5, Task: e, Seed: 42}
	a := sim.Complete(req)
	b := sim.Complete(req)
	if strings.Join(a.SQLs, "|") != strings.Join(b.SQLs, "|") {
		t.Error("same seed must give identical completions")
	}
}

func TestSeedChangesOutput(t *testing.T) {
	c := corpus()
	sim := NewSim(ChatGPT)
	diff := false
	for _, e := range c.Dev.Examples[:30] {
		a := sim.Complete(Request{Prompt: buildPrompt(e), N: 1, Task: e, Seed: 1})
		b := sim.Complete(Request{Prompt: buildPrompt(e), N: 1, Task: e, Seed: 2})
		if a.SQLs[0] != b.SQLs[0] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seed has no effect on any of 30 tasks")
	}
}

// TestGuidanceFixesComposition is the paper's core causal claim: a prompt
// containing a demonstration with the gold operator composition makes the
// LLM produce that composition; without it the naive form dominates.
func TestGuidanceFixesComposition(t *testing.T) {
	c := corpus()
	e := taskOfClass(t, c, spider.ClassExclusionJoin)
	sim := NewSim(ChatGPT)

	guidedRight, unguidedRight := 0, 0
	trials := 40
	for s := 0; s < trials; s++ {
		// Guided: a demo whose skeleton matches gold at Keywords level.
		guided := sim.Complete(Request{
			Prompt: buildPrompt(e, e.GoldSQL), N: 1, Task: e, Seed: int64(s),
		})
		if sel, err := sqlir.Parse(guided.SQLs[0]); err == nil && sel.Compound != nil {
			guidedRight++
		}
		unguided := sim.Complete(Request{
			Prompt: buildPrompt(e), N: 1, Task: e, Seed: int64(s),
		})
		if sel, err := sqlir.Parse(unguided.SQLs[0]); err == nil && sel.Compound != nil {
			unguidedRight++
		}
	}
	if guidedRight <= unguidedRight {
		t.Errorf("guidance does not help: guided=%d unguided=%d of %d", guidedRight, unguidedRight, trials)
	}
	if float64(guidedRight)/float64(trials) < 0.7 {
		t.Errorf("guided composition rate too low: %d/%d", guidedRight, trials)
	}
}

func TestGPT4StrongerThanChatGPT(t *testing.T) {
	c := corpus()
	gpt4, chat := NewSim(GPT4), NewSim(ChatGPT)
	g4ok, chatok := 0, 0
	n := 0
	for _, e := range c.Dev.Examples {
		p := buildPrompt(e)
		a := gpt4.Complete(Request{Prompt: p, N: 1, Task: e, Seed: int64(e.ID)})
		b := chat.Complete(Request{Prompt: p, N: 1, Task: e, Seed: int64(e.ID)})
		if a.SQLs[0] == e.GoldSQL {
			g4ok++
		}
		if b.SQLs[0] == e.GoldSQL {
			chatok++
		}
		n++
	}
	if g4ok <= chatok {
		t.Errorf("GPT4 tier (%d/%d) not stronger than ChatGPT tier (%d/%d)", g4ok, n, chatok, n)
	}
}

func TestHallucinationsMostlyBreakExecution(t *testing.T) {
	c := corpus()
	sim := NewSim(ChatGPT)
	broken, halluSeen := 0, 0
	for _, e := range c.Dev.Examples {
		for s := 0; s < 3; s++ {
			resp := sim.Complete(Request{Prompt: buildPrompt(e), N: 1, Task: e, Seed: int64(1000*e.ID + s)})
			sql := resp.SQLs[0]
			if sql == e.GoldSQL {
				continue
			}
			if _, err := sqlexec.ExecSQL(e.DB, sql); err != nil {
				broken++
			}
			halluSeen++
		}
	}
	if broken == 0 {
		t.Error("no completion ever failed execution; hallucination injection inactive")
	}
}

func TestVariantNoiseRaisesErrors(t *testing.T) {
	// Identical tasks, with and without variant link noise: the noisy copy
	// must fail more often. (Comparing different splits would confound the
	// noise effect with task composition.)
	c := corpus()
	sim := NewSim(ChatGPT)
	miss := func(noise float64) int {
		bad := 0
		for _, e := range c.Dev.Examples {
			copy := *e
			copy.LinkNoise = noise
			for s := 0; s < 3; s++ {
				resp := sim.Complete(Request{Prompt: buildPrompt(&copy, e.GoldSQL), N: 1, Task: &copy,
					Seed: int64(10*e.ID + s)})
				if resp.SQLs[0] != e.GoldSQL {
					bad++
				}
			}
		}
		return bad
	}
	clean := miss(0)
	noisy := miss(0.6)
	if noisy <= clean {
		t.Errorf("link noise has no effect: noisy=%d clean=%d", noisy, clean)
	}
}

func TestTokenAccounting(t *testing.T) {
	c := corpus()
	e := c.Dev.Examples[0]
	sim := NewSim(ChatGPT)
	p := buildPrompt(e)
	resp := sim.Complete(Request{Prompt: p, N: 3, Task: e, Seed: 7})
	if resp.InputTokens != prompt.Tokens(strings.Join(p, "")) {
		t.Error("input token accounting wrong")
	}
	if resp.OutputTokens <= 0 || len(resp.SQLs) != 3 {
		t.Errorf("output accounting: %d tokens, %d SQLs", resp.OutputTokens, len(resp.SQLs))
	}
}

func TestNaiveRewriteShapes(t *testing.T) {
	c := corpus()
	// The exclusion-join naive rewrite must produce the Figure 1 NOT IN form.
	e := taskOfClass(t, c, spider.ClassExclusionJoin)
	out := naiveRewrite(sqlir.Clone(e.Gold), e.Class)
	if out.Compound != nil {
		t.Error("naive exclusion rewrite kept EXCEPT")
	}
	in, ok := out.Where.(*sqlir.In)
	if !ok || !in.Negate || in.Sub == nil {
		t.Errorf("naive exclusion rewrite is not NOT IN(subquery): %s", sqlir.String(out))
	}
	if _, err := sqlexec.Exec(e.DB, out); err != nil {
		t.Errorf("naive rewrite must stay executable: %v", err)
	}
}

func TestSuperlativeRewrite(t *testing.T) {
	c := corpus()
	e := taskOfClass(t, c, spider.ClassSuperlative)
	out := naiveRewrite(sqlir.Clone(e.Gold), e.Class)
	if !out.HasLimit || out.Limit != 1 || len(out.OrderBy) != 1 {
		t.Errorf("superlative naive form should be ORDER BY ... LIMIT 1: %s", sqlir.String(out))
	}
	if _, err := sqlexec.Exec(e.DB, out); err != nil {
		t.Errorf("naive rewrite must execute: %v", err)
	}
}

func TestStyleRewriteEquivalentOnData(t *testing.T) {
	c := corpus()
	e := taskOfClass(t, c, spider.ClassInSub)
	out := styleRewrite(sqlir.Clone(e.Gold), e.Class, Request{Task: e})
	if sqlir.String(out) == e.GoldSQL {
		t.Skip("rewrite not applicable to this instance")
	}
	gres, err := sqlexec.Exec(e.DB, e.Gold)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := sqlexec.Exec(e.DB, out)
	if err != nil {
		t.Fatalf("style rewrite broke execution: %v\n%s", err, sqlir.String(out))
	}
	if len(gres.Rows) != len(pres.Rows) {
		t.Errorf("style rewrite changed result size: %d vs %d\n%s\n%s",
			len(gres.Rows), len(pres.Rows), e.GoldSQL, sqlir.String(out))
	}
}

func TestSurfaceDriftPreservesExecution(t *testing.T) {
	c := corpus()
	checked := 0
	for _, e := range c.Dev.Examples {
		out := surfaceDrift(sqlir.Clone(e.Gold), Request{Task: e}, nil)
		if sqlir.String(out) == e.GoldSQL {
			continue
		}
		checked++
		gres, err := sqlexec.Exec(e.DB, e.Gold)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := sqlexec.Exec(e.DB, out)
		if err != nil {
			t.Fatalf("drift broke execution: %v\n%s", err, sqlir.String(out))
		}
		if len(gres.Rows) != len(pres.Rows) {
			t.Errorf("surface drift changed results:\n%s\n%s", e.GoldSQL, sqlir.String(out))
		}
	}
	if checked == 0 {
		t.Error("surface drift never applied on the whole dev split")
	}
}

// TestGradeMemoClearsWhenFull fills a Sim's two memos past their size:
// each must hold at most gradeMemoSize entries, no SQL memo key may point
// into a block of a prompt, the blocks memo must hold the prompt's
// demonstration blocks themselves and never its task section, and grading
// after each clear must be unchanged.
func TestGradeMemoClearsWhenFull(t *testing.T) {
	c := corpus()
	e := c.Dev.Examples[0]
	demos := []string{e.GoldSQL, "SELEC broken FROM", c.Dev.Examples[1].GoldSQL, c.Dev.Examples[2].GoldSQL}
	req := Request{Prompt: buildPrompt(e, demos...), N: 5, Task: e, Seed: 3}
	sim := NewSim(ChatGPT)
	wantResp := sim.Complete(req)
	wantGuide, _, _ := sim.readPrompt(req)
	// The gold is one of the demonstrations.
	if len(sim.grades) != len(demos) {
		t.Fatalf("memo holds %d grades after a prompt of %d distinct demonstrations", len(sim.grades), len(demos))
	}
	for _, block := range req.Prompt {
		lo := uintptr(unsafe.Pointer(unsafe.StringData(block)))
		for k := range sim.grades {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p >= lo && p < lo+uintptr(len(block)) {
				t.Errorf("memo key %q points into a block of the prompt", k)
			}
		}
	}
	if len(sim.blocks) != len(demos) {
		t.Fatalf("blocks memo holds %d blocks after a prompt of %d demonstrations", len(sim.blocks), len(demos))
	}
	for i, block := range req.Prompt[:len(demos)] {
		if gs, ok := sim.blocks[block]; !ok || len(gs) != 1 || gs[0] != sim.grades[demos[i]] {
			t.Errorf("blocks memo holds %+v for demonstration %d, want its grade", gs, i)
		}
	}
	if _, ok := sim.blocks[req.Prompt[len(demos)]]; ok {
		t.Error("blocks memo holds the task section")
	}

	for i := range gradeMemoSize {
		sim.sqlGrade(fmt.Sprintf("SELECT c%d FROM t", i))
		if len(sim.grades) > gradeMemoSize {
			t.Fatalf("memo holds %d grades, over its size %d", len(sim.grades), gradeMemoSize)
		}
	}
	if _, ok := sim.grades[e.GoldSQL]; ok {
		t.Fatal("memo was not cleared when full")
	}
	if got, _, _ := sim.readPrompt(req); got != wantGuide {
		t.Errorf("guidance after the clear %+v, before %+v", got, wantGuide)
	}
	for i := range gradeMemoSize {
		sim.blockGrades(fmt.Sprintf("Q: q%d\n", i))
		if len(sim.blocks) > gradeMemoSize {
			t.Fatalf("blocks memo holds %d blocks, over its size %d", len(sim.blocks), gradeMemoSize)
		}
	}
	if _, ok := sim.blocks[req.Prompt[0]]; ok {
		t.Fatal("blocks memo was not cleared when full")
	}
	if got, _, _ := sim.readPrompt(req); got != wantGuide {
		t.Errorf("guidance after the blocks memo's clear %+v, before %+v", got, wantGuide)
	}
	if got := sim.Complete(req); !reflect.DeepEqual(got, wantResp) {
		t.Errorf("response after the clear %+v, before %+v", got, wantResp)
	}
	if got := NewSim(ChatGPT).Complete(req); !reflect.DeepEqual(got, wantResp) {
		t.Errorf("fresh Sim's response %+v, warm Sim's %+v", got, wantResp)
	}
}
