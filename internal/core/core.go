// Package core wires the PURPLE pipeline together (Figure 3): schema
// pruning → skeleton prediction → demonstration selection → LLM inference →
// database adaption. It exposes the library's primary public API: build a
// Pipeline from training demonstrations and an LLM client, then Translate
// NL2SQL tasks.
package core

import (
	"context"
	"iter"
	"slices"
	"time"

	"repro/internal/adaption"
	"repro/internal/automaton"
	"repro/internal/classifier"
	"repro/internal/lazyrand"
	"repro/internal/llm"
	"repro/internal/predictor"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/selection"
	"repro/internal/spider"
	"repro/internal/sqlir"
	"repro/internal/trace"
)

// Translation is the outcome of translating one NL2SQL task.
type Translation struct {
	SQL          string
	InputTokens  int
	OutputTokens int
	DemosUsed    int
}

// Translator is any NL2SQL strategy (PURPLE or a baseline).
type Translator interface {
	Name() string
	Translate(e *spider.Example) Translation
}

// ContextTranslator is the optional context-aware extension of Translator:
// implementations thread the request context through for tracing. Callers
// that hold a context (the engine, the service) prefer it when available;
// TranslateContext with a spanless context must behave exactly like
// Translate.
type ContextTranslator interface {
	Translator
	TranslateContext(ctx context.Context, e *spider.Example) Translation
}

// translateCtx dispatches to TranslateContext when tr implements it.
func translateCtx(ctx context.Context, tr Translator, e *spider.Example) Translation {
	if ct, ok := tr.(ContextTranslator); ok {
		return ct.TranslateContext(ctx, e)
	}
	return tr.Translate(e)
}

// Config parameterizes the PURPLE pipeline. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	// TauP and TauN are the schema-pruning thresholds (Section IV-A).
	TauP float64
	TauN int
	// TopK is the number of predicted skeletons (Section IV-B, default 3).
	TopK int
	// PromptTokens is the input-length budget ("len" in Figure 11).
	PromptTokens int
	// Consistency is the number of sampled completions ("num" in Figure 11).
	Consistency int
	// Policy is the demonstration-selection generalization schedule.
	Policy selection.Policy
	// MaskLevels and DropProb are the Figure 12 noise knobs.
	MaskLevels int
	DropProb   float64
	// Module switches for the Table 6 ablations.
	UseSchemaPruning bool
	UseSteinerTree   bool
	UseSelection     bool
	UseAdaption      bool
	// OracleSkeleton replaces predictions with the gold skeleton (Table 6's
	// +Oracle Skeleton row).
	OracleSkeleton bool
	// Seed drives all pipeline randomness.
	Seed int64
}

// DefaultConfig is the paper's default PURPLE configuration: τp=0.5, τn=5,
// top-3 skeletons, len=3072, num=30.
func DefaultConfig() Config {
	return Config{
		TauP:             0.5,
		TauN:             5,
		TopK:             3,
		PromptTokens:     3072,
		Consistency:      30,
		Policy:           selection.DefaultPolicy(),
		UseSchemaPruning: true,
		UseSteinerTree:   true,
		UseSelection:     true,
		UseAdaption:      true,
		Seed:             1,
	}
}

// Pipeline is a constructed PURPLE instance.
type Pipeline struct {
	cfg    Config
	client llm.Client
	clf    *classifier.Model
	pred   *predictor.Model
	hier   *automaton.Hierarchy
	demos  []prompt.Demo // each training example's prompt block, rendered once, in training order
	allIdx []int
}

// New builds a PURPLE pipeline: trains the pruning classifier and the
// skeleton predictor on the demonstration set, constructs the four-level
// automaton hierarchy, and renders each demonstration once as its prompt
// block, with its schema pruned to the items its gold SQL uses (Section
// III-A). The pipeline keeps only the rendered text, not the pruned schemas.
func New(train []*spider.Example, client llm.Client, cfg Config) *Pipeline {
	used := classifier.UsedByExample(train)
	return NewWithModels(train, used, client, cfg, classifier.Train(train, used), predictor.Train(train))
}

// NewWithModels builds a pipeline around pre-trained substrate models —
// useful when sweeping many configurations over the same training set (the
// Figure 11/12 grids) without retraining per cell. used[i] is the items
// train[i]'s gold SQL uses (classifier.UsedByExample), the labels the
// classifier trained on.
func NewWithModels(train []*spider.Example, used []classifier.Used, client llm.Client, cfg Config, clf *classifier.Model, pred *predictor.Model) *Pipeline {
	p := &Pipeline{
		cfg:    cfg,
		client: client,
		clf:    clf,
		pred:   pred,
	}
	var skeletons [][]string
	for i, e := range train {
		skeletons = append(skeletons, sqlir.Skeleton(e.Gold))
		p.demos = append(p.demos, RenderDemo(e, used[i]))
		p.allIdx = append(p.allIdx, i)
	}
	p.hier = automaton.BuildHierarchy(skeletons)
	return p
}

// RenderDemo renders a training example as its prompt demonstration: its
// schema pruned to the tables and columns its gold SQL uses (used, from
// classifier.UsedItems), its question and its gold SQL. The pruned schema
// is dropped once the block is written.
func RenderDemo(e *spider.Example, used classifier.Used) prompt.Demo {
	keep := make([][]bool, len(e.DB.Tables))
	for i, t := range e.DB.Index().Tables {
		if !slices.Contains(used.Tables, t.Name) {
			continue
		}
		keep[i] = make([]bool, len(t.Columns))
		for _, tc := range used.Columns {
			if len(tc) <= len(t.Name) || tc[:len(t.Name)] != t.Name || tc[len(t.Name)] != '.' {
				continue
			}
			for j, c := range t.Columns {
				if c.Name == tc[len(t.Name)+1:] {
					keep[i][j] = true
				}
			}
		}
	}
	return prompt.NewDemo(e.DB.Prune(keep), e.NL, e.GoldSQL)
}

// pruneConfig is schema pruning's configuration for a task's question.
func (p *Pipeline) pruneConfig() classifier.PruneConfig {
	return classifier.PruneConfig{
		TauP: p.cfg.TauP, TauN: p.cfg.TauN,
		UseSteiner: p.cfg.UseSteinerTree, TopK1: 4, TopK2: 5,
	}
}

// topK is how many skeletons the pipeline predicts per question.
func (p *Pipeline) topK() int {
	if p.cfg.TopK <= 0 {
		return 3
	}
	return p.cfg.TopK
}

// Retrieve runs the pipeline's retrieval front half on a free-form
// question over db: schema pruning and skeleton prediction, with the
// pipeline's own τp, τn, Steiner switch and TopK. A question with no gold
// SQL behind it can be served this far and no further: the simulated LLM
// needs a task.
func (p *Pipeline) Retrieve(db *schema.Database, question string) (classifier.PruneResult, []predictor.Prediction) {
	return classifier.Prune(p.clf, question, db, p.pruneConfig()), p.pred.Predict(question, p.topK())
}

// Name implements Translator.
func (p *Pipeline) Name() string { return "PURPLE(" + p.client.Name() + ")" }

// Config returns the configuration the pipeline runs with.
func (p *Pipeline) Config() Config { return p.cfg }

// Classifier exposes the trained pruning model (used by examples and
// baselines sharing the substrate).
func (p *Pipeline) Classifier() *classifier.Model { return p.clf }

// Predictor exposes the trained skeleton model.
func (p *Pipeline) Predictor() *predictor.Model { return p.pred }

// Translate runs the full pipeline on one task.
func (p *Pipeline) Translate(e *spider.Example) Translation {
	return p.TranslateContext(context.Background(), e)
}

// TranslateContext runs the full pipeline on one task, opening a child span
// per stage when ctx carries a recorded trace. With a spanless context every
// span call is a nil no-op, so the output — and the hot path's allocation
// profile — is identical to Translate.
func (p *Pipeline) TranslateContext(ctx context.Context, e *spider.Example) Translation {
	ctx, tsp := trace.StartSpan(ctx, "pipeline.translate")
	tsp.SetAttrs(trace.Int("task_id", int64(e.ID)), trace.Str("db", e.DB.Name))

	// The per-task rng drives selection's noise knobs and random fill, or
	// the ablation's permutation. Nothing draws from it after selection, so
	// a fill permutation that prompt.Build never pulls far enough to draw
	// leaves every later output unchanged.
	rng := lazyrand.New(p.cfg.Seed*1_000_003 + int64(e.ID))

	// Step 1: schema pruning.
	taskDB := e.DB
	if p.cfg.UseSchemaPruning {
		_, sp := trace.StartSpan(ctx, "pipeline.prune")
		taskDB = classifier.Prune(p.clf, e.NL, taskDB, p.pruneConfig()).DB
		sp.SetAttrs(trace.Int("tables_kept", int64(len(taskDB.Tables))))
		sp.Finish()
	}

	// Step 2: skeleton prediction (or the oracle skeleton ablation).
	var preds [][]string
	if p.cfg.OracleSkeleton {
		preds = [][]string{sqlir.Skeleton(e.Gold)}
	} else {
		_, sp := trace.StartSpan(ctx, "pipeline.predict")
		for _, pr := range p.pred.Predict(e.NL, p.topK()) {
			preds = append(preds, pr.Tokens)
		}
		sp.SetAttrs(trace.Int("skeletons", int64(len(preds))))
		sp.Finish()
	}

	// Step 3: demonstration selection. Select builds the preference matrix
	// and returns the order lazily, so the span closes when it returns; the
	// demonstrations prompt.Build pulls are counted as they are produced.
	_, ssp := trace.StartSpan(ctx, "pipeline.select")
	var order iter.Seq[int]
	if p.cfg.UseSelection {
		order = selection.Select(p.hier, preds, selection.Options{
			Policy:     p.cfg.Policy,
			MaskLevels: p.cfg.MaskLevels,
			DropProb:   p.cfg.DropProb,
			Rng:        rng,
			FillPool:   p.allIdx,
		})
	} else {
		order = slices.Values(rng.Perm(len(p.demos))) // the -Demonstration Selection ablation
	}
	selected := time.Now()
	candidates := 0
	demos := func(yield func(prompt.Demo) bool) {
		for i := range order {
			candidates++
			if !yield(p.demos[i]) {
				return
			}
		}
	}

	// Step 4: prompt assembly and LLM inference.
	built := prompt.Build("", demos, taskDB, e.NL, p.cfg.PromptTokens)
	ssp.SetAttrs(trace.Int("candidates", int64(candidates)))
	ssp.FinishAt(selected)
	n := p.cfg.Consistency
	if n <= 0 {
		n = 1
	}
	lctx, lsp := trace.StartSpan(ctx, "llm.complete")
	resp := p.client.Complete(llm.Request{
		Prompt: built.Text,
		N:      n,
		Task:   e,
		Seed:   p.cfg.Seed*7_000_003 + int64(e.ID),
		Ctx:    lctx,
	})
	lsp.SetAttrs(
		trace.Int("input_tokens", int64(resp.InputTokens)),
		trace.Int("output_tokens", int64(resp.OutputTokens)),
		trace.Int("completions", int64(len(resp.SQLs))),
	)
	lsp.Finish()

	// Step 5: database adaption + execution consistency.
	out := Translation{
		InputTokens:  resp.InputTokens,
		OutputTokens: resp.OutputTokens,
		DemosUsed:    built.DemosUsed,
	}
	defer tsp.Finish()
	if p.cfg.UseAdaption {
		_, asp := trace.StartSpan(ctx, "pipeline.adapt")
		v, ok := adaption.Vote(e.DB, resp.SQLs, true)
		asp.SetAttrs(
			trace.Bool("vote_ok", ok),
			trace.Int("votes", int64(v.Votes)),
			trace.Int("candidates_run", int64(v.Run)),
		)
		asp.Finish()
		if ok {
			out.SQL = v.SQL
			return out
		}
	}
	if len(resp.SQLs) > 0 {
		out.SQL = resp.SQLs[0]
	}
	return out
}
