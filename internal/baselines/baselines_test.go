package baselines

import (
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/predictor"
	"repro/internal/spider"
)

func fixtures(t *testing.T) (*spider.Corpus, *classifier.Model, *predictor.Model) {
	t.Helper()
	c := spider.GenerateSmall(55, 0.06)
	return c, classifier.Train(c.Train.Examples, classifier.UsedByExample(c.Train.Examples)), predictor.Train(c.Train.Examples)
}

func runEM(t *testing.T, tr core.Translator, examples []*spider.Example) (em, ex float64) {
	t.Helper()
	var nem, nex int
	for _, e := range examples {
		res := tr.Translate(e)
		if res.SQL == "" {
			t.Fatalf("%s: empty SQL for %q", tr.Name(), e.NL)
		}
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

func TestAllBaselinesProduceSQL(t *testing.T) {
	c, clf, pred := fixtures(t)
	dev := c.Dev.Examples[:20]
	for _, tr := range []core.Translator{
		&ChatGPTSQL{Client: llm.NewSim(llm.ChatGPT), Seed: 1},
		&C3{Client: llm.NewSim(llm.ChatGPT), Clf: clf, Consistency: 5, Seed: 1},
		NewDINSQL(llm.NewSim(llm.GPT4), c.Train.Examples, 8, 1),
		NewDAILSQL(llm.NewSim(llm.GPT4), pred, c.Train.Examples, 2048, 1),
		NewPLMDirect("RESDSQL", 1),
	} {
		for _, e := range dev {
			if res := tr.Translate(e); res.SQL == "" {
				t.Errorf("%s produced empty SQL", tr.Name())
				break
			}
		}
	}
}

// TestPaperOrderings asserts the qualitative Table 4 ordering at small
// scale: PURPLE-style few-shot retrieval (DAIL) beats fixed demos (DIN) on
// EM, and all few-shot beat zero-shot on EM.
func TestPaperOrderings(t *testing.T) {
	c, clf, pred := fixtures(t)
	dev := c.Dev.Examples
	if len(dev) > 80 {
		dev = dev[:80]
	}
	zeroEM, zeroEX := runEM(t, &ChatGPTSQL{Client: llm.NewSim(llm.ChatGPT), Seed: 1}, dev)
	dailEM, _ := runEM(t, NewDAILSQL(llm.NewSim(llm.GPT4), pred, c.Train.Examples, 3072, 1), dev)
	dinEM, _ := runEM(t, NewDINSQL(llm.NewSim(llm.GPT4), c.Train.Examples, 8, 1), dev)
	c3EM, c3EX := runEM(t, &C3{Client: llm.NewSim(llm.ChatGPT), Clf: clf, Consistency: 10, Seed: 1}, dev)

	if zeroEM >= zeroEX {
		t.Errorf("zero-shot EM (%.1f) should be far below EX (%.1f)", zeroEM, zeroEX)
	}
	if dailEM <= zeroEM {
		t.Errorf("DAIL-SQL EM (%.1f) should beat zero-shot EM (%.1f)", dailEM, zeroEM)
	}
	if dailEM < dinEM-8 {
		t.Errorf("DAIL-SQL EM (%.1f) should be at least around DIN-SQL EM (%.1f)", dailEM, dinEM)
	}
	if c3EX <= zeroEX-3 {
		t.Errorf("C3 EX (%.1f) should not trail zero-shot EX (%.1f)", c3EX, zeroEX)
	}
	_ = c3EM
}

func TestDINFixedPoolIsDeterministic(t *testing.T) {
	c, _, _ := fixtures(t)
	a := NewDINSQL(llm.NewSim(llm.GPT4), c.Train.Examples, 8, 1)
	b := NewDINSQL(llm.NewSim(llm.GPT4), c.Train.Examples, 8, 1)
	if len(a.fixed) != len(b.fixed) || len(a.fixed) == 0 {
		t.Fatalf("pool sizes differ or empty: %d vs %d", len(a.fixed), len(b.fixed))
	}
	for i := range a.fixed {
		if a.fixed[i].Text != b.fixed[i].Text {
			t.Error("fixed pool not deterministic")
		}
	}
}

func TestJaccard(t *testing.T) {
	if jaccard([]string{"a", "b"}, []string{"a", "b"}) != 1 {
		t.Error("identical sets should be 1")
	}
	if jaccard([]string{"a"}, []string{"b"}) != 0 {
		t.Error("disjoint sets should be 0")
	}
	if got := jaccard([]string{"a", "b"}, []string{"b", "c"}); got < 0.32 || got > 0.34 {
		t.Errorf("jaccard = %f, want 1/3", got)
	}
}
