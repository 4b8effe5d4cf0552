package repro

import (
	"testing"

	"repro/internal/adaption"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// End-to-end integration tests: the cross-module invariants a release must
// hold, run at moderate corpus scale.

func integrationCorpus(t *testing.T) *spider.Corpus {
	t.Helper()
	if testing.Short() {
		t.Skip("integration tests skipped in -short mode")
	}
	return spider.GenerateSmall(2024, 0.1)
}

// TestEndToEndHeadlineOrdering verifies the paper's headline result on a
// moderate slice: PURPLE beats the zero-shot baseline by a wide margin on
// EM and a clear margin on EX, with both tiers ordered correctly.
func TestEndToEndHeadlineOrdering(t *testing.T) {
	c := integrationCorpus(t)
	dev := c.Dev.Examples
	if len(dev) > 120 {
		dev = dev[:120]
	}
	score := func(tr core.Translator) (em, ex float64) {
		var nem, nex int
		for _, e := range dev {
			res := tr.Translate(e)
			if eval.ExactSetMatchSQL(res.SQL, e.GoldSQL) {
				nem++
			}
			if eval.ExecutionMatch(e.DB, res.SQL, e.GoldSQL) {
				nex++
			}
		}
		n := float64(len(dev))
		return 100 * float64(nem) / n, 100 * float64(nex) / n
	}
	p35 := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	em35, ex35 := score(p35)
	if em35 < 60 {
		t.Errorf("PURPLE(ChatGPT) EM %.1f unexpectedly low", em35)
	}
	if ex35 < em35 {
		t.Errorf("EX (%.1f) should be at least EM (%.1f)", ex35, em35)
	}
	p4 := core.New(c.Train.Examples, llm.NewSim(llm.GPT4), core.DefaultConfig())
	em4, _ := score(p4)
	if em4 < em35-3 {
		t.Errorf("PURPLE(GPT4) EM %.1f should not trail ChatGPT tier %.1f", em4, em35)
	}
}

// TestEndToEndAdaptionNeverBreaksValidSQL: the no-side-effect guarantee of
// Section IV-D over the whole dev split — adapting gold SQL returns it
// unchanged.
func TestEndToEndAdaptionNeverBreaksValidSQL(t *testing.T) {
	c := integrationCorpus(t)
	for _, e := range c.Dev.Examples {
		f := &adaption.Fixer{DB: e.DB}
		out, res := f.Adapt(e.GoldSQL)
		if res == nil {
			t.Fatalf("gold SQL reported unfixable: %s", e.GoldSQL)
		}
		if out != e.GoldSQL {
			t.Fatalf("adaption perturbed valid SQL:\n in: %s\nout: %s", e.GoldSQL, out)
		}
	}
}

// TestEndToEndPredictionsAreWellFormed: every pipeline output parses or is
// at least repairable — the pipeline never emits garbage.
func TestEndToEndPredictionsAreWellFormed(t *testing.T) {
	c := integrationCorpus(t)
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	dev := c.Dev.Examples
	if len(dev) > 100 {
		dev = dev[:100]
	}
	unparseable := 0
	for _, e := range dev {
		res := p.Translate(e)
		if _, err := sqlir.Parse(res.SQL); err != nil {
			unparseable++
		}
	}
	if unparseable > 0 {
		t.Errorf("%d/%d pipeline outputs do not parse", unparseable, len(dev))
	}
}

// TestEndToEndGoldAlwaysExecutes across every split at scale.
func TestEndToEndGoldAlwaysExecutes(t *testing.T) {
	c := integrationCorpus(t)
	for _, b := range []*spider.Benchmark{c.Train, c.Dev, c.DK, c.Syn, c.Realistic} {
		for _, e := range b.Examples {
			if _, err := sqlexec.Exec(e.DB, e.Gold); err != nil {
				t.Fatalf("%s #%d gold fails: %v\n%s", b.Name, e.ID, err, e.GoldSQL)
			}
		}
	}
}

// TestEndToEndFailureProfile: PURPLE's residual failures should be
// dominated by linking errors, not composition errors (the module exists to
// eliminate exactly those).
func TestEndToEndFailureProfile(t *testing.T) {
	c := integrationCorpus(t)
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	r := analysis.Run(p, c.Dev, 120)
	comp := r.Counts[analysis.CompositionError] + r.Counts[analysis.LuckyExecution]
	link := r.Counts[analysis.LinkingError]
	if comp > link+r.Counts[analysis.Correct]/2 {
		t.Errorf("composition errors (%d) dominate PURPLE failures (link=%d):\n%s", comp, link, r)
	}
	if r.Counts[analysis.Unparseable] > 0 {
		t.Errorf("unparseable outputs present:\n%s", r)
	}
}
