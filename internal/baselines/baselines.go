// Package baselines implements the comparison strategies of Section V-A3:
// ChatGPT-SQL (zero-shot), C3 (zero-shot with calibration instructions,
// schema reduction and execution consistency), DIN-SQL (few-shot
// chain-of-thought with a fixed demonstration pool and self-correction),
// DAIL-SQL (similarity-based demonstration selection), and a PLM-direct
// strategy standing in for the fine-tuned PICARD/RESDSQL/Graphix-T5 family.
package baselines

import (
	"sort"
	"strings"

	"repro/internal/adaption"
	"repro/internal/automaton"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/predictor"
	"repro/internal/prompt"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// ChatGPTSQL is the zero-shot probe of Liu et al.: full schema, plain
// instruction, single greedy sample, no repair.
type ChatGPTSQL struct {
	Client llm.Client
	Seed   int64
}

// Name implements core.Translator.
func (s *ChatGPTSQL) Name() string { return "ChatGPT-SQL(" + s.Client.Name() + ")" }

// Translate implements core.Translator.
func (s *ChatGPTSQL) Translate(e *spider.Example) core.Translation {
	b := prompt.NewBuilder("-- Translate the question into SQLite SQL.", e.DB, e.NL, 0)
	built := b.Result()
	resp := s.Client.Complete(llm.Request{
		Prompt: built.Text, N: 1, Task: e,
		Seed: s.Seed*11_000_003 + int64(e.ID),
	})
	out := core.Translation{InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens}
	if len(resp.SQLs) > 0 {
		out.SQL = resp.SQLs[0]
	}
	return out
}

// C3 is the zero-shot calibration strategy of Dong et al.: instruction
// design, schema reduction, and execution-consistency voting (without SQL
// repair).
type C3 struct {
	Client      llm.Client
	Clf         *classifier.Model
	Consistency int // C3 burns ~7k output tokens; default 20 samples
	Seed        int64
}

// Name implements core.Translator.
func (s *C3) Name() string { return "C3(" + s.Client.Name() + ")" }

// Translate implements core.Translator.
func (s *C3) Translate(e *spider.Example) core.Translation {
	n := s.Consistency
	if n <= 0 {
		n = 20
	}
	taskDB := e.DB
	if s.Clf != nil {
		// C3's schema linking: top-k tables and columns, not Steiner-based.
		pcfg := classifier.PruneConfig{TauP: 0.5, TauN: 5, UseSteiner: false, TopK1: 3, TopK2: 5}
		taskDB = classifier.Prune(s.Clf, e.NL, taskDB, pcfg).DB
	}
	instructions := "-- Use only provided tables and columns. Prefer simple clear SQL. Do not use unsupported functions."
	b := prompt.NewBuilder(instructions, taskDB, e.NL, 0)
	built := b.Result()
	resp := s.Client.Complete(llm.Request{
		Prompt: built.Text, N: n, Task: e,
		Calibrated: true,
		Seed:       s.Seed*13_000_003 + int64(e.ID),
	})
	out := core.Translation{InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens}
	if v, ok := adaption.Vote(e.DB, resp.SQLs, false); ok {
		out.SQL = v.SQL
	} else if len(resp.SQLs) > 0 {
		out.SQL = resp.SQLs[0]
	}
	return out
}

// DINSQL is the decomposed chain-of-thought strategy of Pourreza & Rafiei:
// a fixed demonstration pool (the most frequent training compositions),
// CoT prompting, one sample, then self-correction.
type DINSQL struct {
	Client llm.Client
	Seed   int64

	fixed []prompt.Demo
}

// NewDINSQL selects the fixed demonstration pool: the single most frequent
// training example per common skeleton, most frequent skeleton first.
func NewDINSQL(client llm.Client, train []*spider.Example, poolSize int, seed int64) *DINSQL {
	type group struct {
		first *spider.Example
		count int
	}
	groups := map[string]*group{}
	for _, e := range train {
		k := sqlir.SkeletonString(e.Gold)
		g := groups[k]
		if g == nil {
			groups[k] = &group{first: e, count: 1}
		} else {
			g.count++
		}
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if groups[keys[i]].count != groups[keys[j]].count {
			return groups[keys[i]].count > groups[keys[j]].count
		}
		return keys[i] < keys[j]
	})
	d := &DINSQL{Client: client, Seed: seed}
	for i := 0; i < poolSize && i < len(keys); i++ {
		e := groups[keys[i]].first
		d.fixed = append(d.fixed, core.RenderDemo(e, classifier.UsedItems(e.Gold, e.DB)))
	}
	return d
}

// Name implements core.Translator.
func (s *DINSQL) Name() string { return "DIN-SQL(" + s.Client.Name() + ")" }

// Translate implements core.Translator.
func (s *DINSQL) Translate(e *spider.Example) core.Translation {
	instructions := "-- Let's think step by step: link the schema, classify the question, then write the SQL."
	b := prompt.NewBuilder(instructions, e.DB, e.NL, 0)
	for _, d := range s.fixed {
		b.Add(d)
	}
	built := b.Result()
	resp := s.Client.Complete(llm.Request{
		Prompt: built.Text, N: 1, Task: e,
		CoT:  true,
		Seed: s.Seed*17_000_003 + int64(e.ID),
	})
	out := core.Translation{InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens, DemosUsed: len(s.fixed)}
	if len(resp.SQLs) == 0 {
		return out
	}
	// DIN-SQL's self-correction pass: repair non-executable output.
	f := &adaption.Fixer{DB: e.DB}
	if fixed, res := f.Adapt(resp.SQLs[0]); res != nil {
		out.SQL = fixed
	} else {
		out.SQL = resp.SQLs[0]
	}
	return out
}

// DAILSQL is the similarity-based selection strategy of Gao et al.: it
// ranks demonstrations by Jaccard similarity of SQL-keyword sets (order-
// insensitive — the limitation PURPLE's automaton addresses) blended with
// NL word overlap, against a pre-predicted skeleton.
type DAILSQL struct {
	Client    llm.Client
	Pred      *predictor.Model
	MaxTokens int
	Seed      int64

	demos []prompt.Demo
	kws   [][]string // keyword set per demo
	words []map[string]bool
}

// NewDAILSQL prepares the demonstration pool.
func NewDAILSQL(client llm.Client, pred *predictor.Model, train []*spider.Example, maxTokens int, seed int64) *DAILSQL {
	d := &DAILSQL{Client: client, Pred: pred, MaxTokens: maxTokens, Seed: seed}
	for _, e := range train {
		d.demos = append(d.demos, core.RenderDemo(e, classifier.UsedItems(e.Gold, e.DB)))
		d.kws = append(d.kws, keywordSet(sqlir.Skeleton(e.Gold)))
		d.words = append(d.words, wordSet(e.NL))
	}
	return d
}

// Name implements core.Translator.
func (s *DAILSQL) Name() string { return "DAIL-SQL(" + s.Client.Name() + ")" }

// Translate implements core.Translator.
func (s *DAILSQL) Translate(e *spider.Example) core.Translation {
	preds := s.Pred.Predict(e.NL, 1)
	var predKw []string
	if len(preds) > 0 {
		predKw = keywordSet(preds[0].Tokens)
	}
	nlWords := wordSet(e.NL)
	type scored struct {
		idx   int
		score float64
	}
	ranking := make([]scored, len(s.demos))
	for i := range s.demos {
		ranking[i] = scored{i, 0.7*jaccard(predKw, s.kws[i]) + 0.3*jaccardSet(nlWords, s.words[i])}
	}
	sort.SliceStable(ranking, func(i, j int) bool { return ranking[i].score > ranking[j].score })
	maxTok := s.MaxTokens
	if maxTok <= 0 {
		maxTok = 3072
	}
	b := prompt.NewBuilder("", e.DB, e.NL, maxTok)
	for _, r := range ranking {
		if !b.Add(s.demos[r.idx]) {
			break
		}
	}
	built := b.Result()
	resp := s.Client.Complete(llm.Request{
		Prompt: built.Text, N: 1, Task: e,
		Seed: s.Seed*19_000_003 + int64(e.ID),
	})
	out := core.Translation{InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens, DemosUsed: built.DemosUsed}
	if len(resp.SQLs) > 0 {
		out.SQL = resp.SQLs[0]
	}
	return out
}

// PLMDirect stands in for the fine-tuned PLM parsers (PICARD, RASAT,
// RESDSQL, Graphix-T5) in Table 4: a PLM-tier simulated model queried
// zero-shot (fine-tuned models take no demonstrations), no repair.
type PLMDirect struct {
	Label string // e.g. "RESDSQL"
	Seed  int64

	client llm.Client
}

// NewPLMDirect builds the PLM-family stand-in.
func NewPLMDirect(label string, seed int64) *PLMDirect {
	return &PLMDirect{Label: label, Seed: seed, client: llm.NewSim(llm.PLM)}
}

// Name implements core.Translator.
func (s *PLMDirect) Name() string { return s.Label }

// Translate implements core.Translator.
func (s *PLMDirect) Translate(e *spider.Example) core.Translation {
	b := prompt.NewBuilder("", e.DB, e.NL, 0)
	built := b.Result()
	resp := s.client.Complete(llm.Request{
		Prompt: built.Text, N: 1, Task: e,
		Seed: s.Seed*23_000_003 + int64(e.ID),
	})
	out := core.Translation{InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens}
	if len(resp.SQLs) > 0 {
		out.SQL = resp.SQLs[0]
	}
	return out
}

// ---- shared helpers ----

// keywordSet extracts the keyword multiset-as-set from skeleton tokens (the
// order-insensitive similarity DAIL-SQL uses).
func keywordSet(tokens []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range automaton.Abstract(tokens, automaton.Keywords) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

func wordSet(nl string) map[string]bool {
	out := map[string]bool{}
	for _, w := range strings.Fields(strings.ToLower(nl)) {
		out[strings.Trim(w, "?.',\"")] = true
	}
	return out
}

func jaccard(a, b []string) float64 {
	as := map[string]bool{}
	for _, x := range a {
		as[x] = true
	}
	inter, union := 0, len(as)
	seen := map[string]bool{}
	for _, x := range b {
		if seen[x] {
			continue
		}
		seen[x] = true
		if as[x] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func jaccardSet(a, b map[string]bool) float64 {
	inter, union := 0, 0
	for x := range a {
		union++
		if b[x] {
			inter++
		}
	}
	for x := range b {
		if !a[x] {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
