// Package exp is the experiment harness: it builds the corpus, trains the
// substrate models once, evaluates translators with the EM/EX/TS metrics,
// and regenerates every table and figure of the paper's evaluation section
// (see DESIGN.md's per-experiment index).
package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/predictor"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// Env is the shared experiment environment: corpus, trained models,
// distilled test suites and graded golds, built once and reused across
// experiments.
type Env struct {
	Corpus *spider.Corpus
	// Used is each training example's used items, the classifier's labels
	// and its demonstration's schema.
	Used   []classifier.Used
	Clf    *classifier.Model
	Pred   *predictor.Model
	suites map[string]*eval.Suite
	golds  map[*spider.Example]*eval.Gold
	seed   int64
}

// NewEnv builds an environment at the given corpus scale (1.0 = the paper's
// full Table 3 sizes; smaller scales are proportionally reduced for fast
// iteration).
func NewEnv(seed int64, scale float64) *Env {
	c := spider.GenerateSmall(seed, scale)
	used := classifier.UsedByExample(c.Train.Examples)
	env := &Env{
		Corpus: c,
		Used:   used,
		Clf:    classifier.Train(c.Train.Examples, used),
		Pred:   predictor.Train(c.Train.Examples),
		suites: map[string]*eval.Suite{},
		golds:  map[*spider.Example]*eval.Gold{},
		seed:   seed,
	}
	return env
}

// Suite lazily builds (and caches) the distilled test suite for a database,
// using that database's gold queries in the benchmark as probes.
func (env *Env) Suite(b *spider.Benchmark, dbName string) *eval.Suite {
	key := b.Name + "/" + dbName
	if s, ok := env.suites[key]; ok {
		return s
	}
	var probes []*sqlir.Select
	var db = (*spider.Example)(nil)
	for _, e := range b.Examples {
		if e.DB.Name == dbName {
			if db == nil {
				db = e
			}
			if len(probes) < 24 {
				probes = append(probes, e.Gold)
			}
		}
	}
	if db == nil {
		return &eval.Suite{}
	}
	cfg := eval.DefaultSuiteConfig()
	cfg.Seed = env.seed + int64(len(env.suites))
	s := eval.BuildSuite(db.DB, probes, cfg)
	env.suites[key] = s
	return s
}

// gold lazily builds (and caches) a task's graded gold, so every strategy
// an experiment runs on the task grades against one parse and one
// execution of it.
func (env *Env) gold(e *spider.Example) *eval.Gold {
	g, ok := env.golds[e]
	if !ok {
		g = eval.NewGold(e.DB, e.GoldSQL)
		env.golds[e] = g
	}
	return g
}

// Scores aggregates metric results for one run.
type Scores struct {
	Strategy   string
	N          int
	EM, EX, TS float64
	// ByHardness maps bucket -> (EM, EX) percentages.
	ByHardness map[string][2]float64
	// Token accounting per query (thousands).
	InTokensPerQ, OutTokensPerQ float64
}

// RunOptions tunes an evaluation run.
type RunOptions struct {
	// Limit caps the number of examples evaluated (0 = all).
	Limit int
	// WithTS enables the (costlier) test-suite metric.
	WithTS bool
	// Workers parallelizes translation across a core.Engine pool when > 1.
	// The pipeline is deterministic per example, so the scores are identical
	// to the sequential path regardless of the worker count.
	Workers int
}

// Run evaluates a translator over a benchmark split. Translation runs first
// (sequentially, or across opts.Workers pool goroutines); the metric pass is
// always sequential and in input order, so parallel and sequential runs
// produce byte-identical output.
func (env *Env) Run(tr core.Translator, b *spider.Benchmark, opts RunOptions) Scores {
	examples := b.Examples
	if opts.Limit > 0 && opts.Limit < len(examples) {
		examples = examples[:opts.Limit]
	}
	var results []core.Translation
	if opts.Workers > 1 {
		results, _, _ = core.NewEngine(tr, opts.Workers).TranslateBatch(context.Background(), examples)
	} else {
		results = make([]core.Translation, len(examples))
		for i, e := range examples {
			results[i] = tr.Translate(e)
		}
	}
	s := Scores{Strategy: tr.Name(), N: len(examples), ByHardness: map[string][2]float64{}}
	hardCount := map[string]int{}
	hardEM := map[string]int{}
	hardEX := map[string]int{}
	var em, ex, ts int
	var inTok, outTok int
	for i, e := range examples {
		res := results[i]
		inTok += res.InputTokens
		outTok += res.OutputTokens
		okEM, okEX := env.gold(e).Grade(res.SQL)
		if okEM {
			em++
			hardEM[e.Hardness]++
		}
		if okEX {
			ex++
			hardEX[e.Hardness]++
		}
		hardCount[e.Hardness]++
		if opts.WithTS {
			suite := env.Suite(b, e.DB.Name)
			if eval.TestSuiteMatch(e.DB, suite, res.SQL, e.GoldSQL) {
				ts++
			}
		}
	}
	n := float64(len(examples))
	if n == 0 {
		return s
	}
	s.EM = 100 * float64(em) / n
	s.EX = 100 * float64(ex) / n
	if opts.WithTS {
		s.TS = 100 * float64(ts) / n
	}
	for h, c := range hardCount {
		s.ByHardness[h] = [2]float64{
			100 * float64(hardEM[h]) / float64(c),
			100 * float64(hardEX[h]) / float64(c),
		}
	}
	s.InTokensPerQ = float64(inTok) / n / 1000
	s.OutTokensPerQ = float64(outTok) / n / 1000
	return s
}

// ---- strategy constructors ----

// Purple builds the default PURPLE pipeline on a tier.
func (env *Env) Purple(tier llm.Tier) *core.Pipeline {
	return env.PurpleWith(tier, core.DefaultConfig())
}

// PurpleWith builds PURPLE with a custom config, reusing the environment's
// trained substrate models.
func (env *Env) PurpleWith(tier llm.Tier, cfg core.Config) *core.Pipeline {
	return env.PurpleWithClient(llm.NewSim(tier), cfg)
}

// PurpleWithClient builds PURPLE around an arbitrary LLM client — e.g. a
// llm.Cache-wrapped Sim — reusing the environment's trained substrate models.
func (env *Env) PurpleWithClient(client llm.Client, cfg core.Config) *core.Pipeline {
	return core.NewWithModels(env.Corpus.Train.Examples, env.Used, client, cfg, env.Clf, env.Pred)
}

// ChatGPTSQL builds the zero-shot baseline.
func (env *Env) ChatGPTSQL(tier llm.Tier) core.Translator {
	return &baselines.ChatGPTSQL{Client: llm.NewSim(tier), Seed: env.seed}
}

// C3 builds the calibration baseline.
func (env *Env) C3(tier llm.Tier) core.Translator {
	return &baselines.C3{Client: llm.NewSim(tier), Clf: env.Clf, Consistency: 20, Seed: env.seed}
}

// DINSQL builds the chain-of-thought baseline.
func (env *Env) DINSQL(tier llm.Tier) core.Translator {
	return baselines.NewDINSQL(llm.NewSim(tier), env.Corpus.Train.Examples, 8, env.seed)
}

// DAILSQL builds the similarity-selection baseline.
func (env *Env) DAILSQL(tier llm.Tier) core.Translator {
	return baselines.NewDAILSQL(llm.NewSim(tier), env.Pred, env.Corpus.Train.Examples, 3072, env.seed)
}

// PLM builds one PLM-family reference row.
func (env *Env) PLM(label string) core.Translator {
	return baselines.NewPLMDirect(label, env.seed)
}

// FormatTable renders rows of scores as an aligned text table.
func FormatTable(title string, header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(title + "\n")
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

// pct formats a percentage cell.
func pct(v float64) string { return fmt.Sprintf("%.1f", v) }
