package llm

import (
	"strings"
	"sync"

	"repro/internal/automaton"
	"repro/internal/lazyrand"
	"repro/internal/prompt"
	"repro/internal/sqlir"
)

// Sim is the simulated LLM. Construct with NewSim. It is safe for
// concurrent use.
type Sim struct {
	tier Tier
	prof profile

	mu     sync.Mutex
	grades map[string]grade   // SQL text → its grade; see sqlGrade
	blocks map[string][]grade // prompt block → its SQL lines' grades; see readPrompt
}

// gradeMemoSize bounds each of a Sim's two memos: when one is full it is
// cleared. The paper-scale corpus has 6,811 distinct training gold SQL
// strings and 8,659 demonstration blocks, so a shard's pipeline never
// clears them, and tenants' demonstrations cannot grow them without
// bound.
const gradeMemoSize = 16384

// NewSim returns a simulated LLM of the given tier.
func NewSim(tier Tier) *Sim {
	return &Sim{tier: tier, prof: profiles[tier], grades: map[string]grade{}, blocks: map[string][]grade{}}
}

// Name implements Client.
func (s *Sim) Name() string { return "sim-" + strings.ToLower(s.tier.String()) }

// guidance is how strongly the in-prompt demonstrations teach the gold
// composition: the abstraction level of the closest match.
type guidance int

const (
	guideNone guidance = iota
	guideClause
	guideStructure
	guideExact // Keywords or Detail level
)

// Complete implements Client.
//
// Error structure: an LLM that misreads a question misreads it in every
// sample, so the load-bearing decisions — did the prompt teach the
// composition, did the model link the right schema items — are drawn ONCE
// per request. Samples then vary only by a small temperature (occasional
// decision flips) and by independent hallucination draws. Consequently
// execution-consistency voting recovers the modest, Figure 11-sized gains
// (it filters hallucinated and temperature-flipped samples) but cannot fix a
// persistent misunderstanding, matching the paper's observations.
//
// Every generator is math/rand's, seeded lazily (lazyrand), and a sample's
// tree before hallucination depends only on the request and on the
// sample's composeOK and driftOK: the rewrites draw from their own
// linkSeed generators, never from the sample's. So a request's samples
// share at most four trees, each built and printed once, and a sample
// clones its tree only to hallucinate on it.
func (s *Sim) Complete(req Request) Response {
	rng := lazyrand.New(req.Seed ^ int64(s.tier)<<32 ^ 0x5eed)
	resp := Response{InputTokens: req.Prompt.Tokens()}
	g, nTables, nCols := s.readPrompt(req)
	linkErr := s.linkErrRate(req, nTables, nCols)
	halluRate := s.prof.halluBase
	if req.Calibrated {
		halluRate *= 0.55
	}

	// C3-style calibration instructions spell out SQL-writing rules and
	// partially substitute for demonstrations on composition (the paper's
	// C3 row: EX near the few-shot methods while EM stays zero-shot-low).
	rep := repetitionFactor(g.matches)
	composeP := s.composeProb(g.level)
	styleP := s.styleProb(g.level)
	if g.level != guideNone {
		composeP *= rep
		styleP *= rep
	}
	if req.Calibrated && composeP < 0.60 {
		composeP += 0.42
	}

	// Persistent per-request decisions.
	d := decisions{
		composeOK: rng.Float64() < composeP,
		styleOK:   rng.Float64() < styleP,
		driftOK:   rng.Float64() < styleP,
		linkBad:   rng.Float64() < linkErr,
		linkSeed:  rng.Int63(),
	}

	n := req.N
	if n <= 0 {
		n = 1
	}
	const temperature = 0.10
	var bases [4]*base // by baseIndex
	resp.SQLs = make([]string, 0, n)
	for i := 0; i < n; i++ {
		srng := lazyrand.New(rng.Int63())
		di := d
		if srng.Float64() < temperature {
			di.composeOK = !di.composeOK
		}
		if srng.Float64() < temperature {
			di.driftOK = !di.driftOK
		}
		sql := "SELECT 1 FROM nothing"
		if req.Task != nil {
			b := &bases[baseIndex(di)]
			if *b == nil {
				*b = newBase(req, di)
			}
			// Hallucination: dialect/schema-invalid output (usually
			// detectable by execution and fixable by the adaption module);
			// independent per sample.
			if srng.Float64() < halluRate {
				sql = hallucinate(sqlir.Clone((*b).sel), req, srng)
			} else {
				sql = (*b).sql
			}
		}
		resp.SQLs = append(resp.SQLs, sql)
		resp.OutputTokens += prompt.Tokens(sql)
	}
	return resp
}

// decisions are the per-request persistent outcomes.
type decisions struct {
	composeOK bool
	styleOK   bool
	driftOK   bool
	linkBad   bool
	linkSeed  int64
}

// guidanceInfo grades the prompt: the tightest abstraction level at which
// any demonstration's skeleton matches the gold skeleton, and how many
// demonstrations match at that level. In-context learning needs repeated
// exemplars to internalize a pattern, so one matching demo teaches less
// reliably than several — this is what makes the Figure 11 input-length
// budget matter: a bigger budget fits more matching demonstrations.
type guidanceInfo struct {
	level   guidance
	matches int
}

// readPrompt reads the prompt as the model sees it: it grades the
// demonstrations against the gold skeleton and counts the tables and
// columns of the task section. This is the oracle-calibrated grading of
// prompt quality: a demo that matches at Keywords level teaches the exact
// operator composition; a Clause-level cousin only gestures at it.
//
// The demonstrations are the SQL lines prompt.DemoSQLs yields, and the
// task section is where prompt.TaskSchemaSize finds it. A block without
// "### Task" in it is read once per Sim: the blocks memo keeps its SQL
// lines' grades, keyed by its text, so a prompt costs one lookup per
// demonstration. The first block with "### Task" in it and every block
// after it are read in full, every time; the task section starts in that
// block. The gold is graded from its text through the SQL memo, as a
// demonstration is.
func (s *Sim) readPrompt(req Request) (guidanceInfo, int, int) {
	t := req.Prompt
	if req.Task == nil {
		tables, columns := prompt.TaskSchemaSize(t)
		return guidanceInfo{}, tables, columns
	}
	gold := s.sqlGrade(req.Task.GoldSQL)
	var counts matchCounts
	n := 0 // blocks read so far
	for {
		n += s.readMemoised(t[n:], gold, &counts)
		if n == len(t) || strings.Contains(t[n], prompt.TaskHeader) {
			break
		}
		for _, g := range s.blockGrades(t[n]) {
			counts.add(g, gold)
		}
		n++
	}
	for sql := range prompt.DemoSQLs(t[n:]) {
		counts.add(s.sqlGrade(sql), gold)
	}
	tables, columns := prompt.TaskSchemaSize(t[n:])

	for _, lvl := range []guidance{guideExact, guideStructure, guideClause} {
		if counts[lvl] > 0 {
			return guidanceInfo{level: lvl, matches: counts[lvl]}, tables, columns
		}
	}
	return guidanceInfo{}, tables, columns
}

// readMemoised counts the grades the blocks memo holds for t's blocks
// against gold, in order and under one lock, up to the first block it
// does not hold, and returns how many blocks it read.
func (s *Sim) readMemoised(t prompt.Text, gold grade, counts *matchCounts) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, b := range t {
		gs, ok := s.blocks[b]
		if !ok {
			return i
		}
		for _, g := range gs {
			counts.add(g, gold)
		}
	}
	return len(t)
}

// matchCounts counts demonstrations by the tightest level at which they
// match the gold.
type matchCounts [guideExact + 1]int

func (c *matchCounts) add(g, gold grade) {
	switch {
	case !g.ok:
	case g.keywords == gold.keywords:
		c[guideExact]++
	case g.structure == gold.structure:
		c[guideStructure]++
	case g.clause == gold.clause:
		c[guideClause]++
	}
}

// grade is a skeleton abstracted to the three levels readPrompt compares,
// each joined into one string. The zero grade is that of SQL that does
// not parse.
type grade struct {
	keywords, structure, clause string
	ok                          bool
}

func gradeOf(skeleton []string) grade {
	return grade{
		keywords:  strings.Join(automaton.Abstract(skeleton, automaton.Keywords), " "),
		structure: strings.Join(automaton.Abstract(skeleton, automaton.Structure), " "),
		clause:    strings.Join(automaton.Abstract(skeleton, automaton.Clause), " "),
		ok:        true,
	}
}

// sqlGrade grades SQL text, parsing each distinct text once: prompts
// repeat their demonstrations and requests their golds.
func (s *Sim) sqlGrade(sql string) grade {
	s.mu.Lock()
	g, ok := s.grades[sql]
	s.mu.Unlock()
	if ok {
		return g
	}
	if sel, err := sqlir.Parse(sql); err == nil {
		g = gradeOf(sqlir.Skeleton(sel))
	}
	s.mu.Lock()
	if len(s.grades) >= gradeMemoSize {
		clear(s.grades)
	}
	// sql may be a substring of a prompt block: the key must not keep the
	// block alive.
	s.grades[strings.Clone(sql)] = g
	s.mu.Unlock()
	return g
}

// blockGrades grades the SQL lines of a prompt block that has no
// "### Task" in it and memoises them under the block's text. The key is
// the block itself, not a copy: a pipeline renders each demonstration
// block once and keeps it, so the memo keeps alive at most gradeMemoSize
// blocks that no pipeline holds any more.
func (s *Sim) blockGrades(b string) []grade {
	var gs []grade
	for sql := range prompt.DemoSQLs(prompt.Text{b}) {
		gs = append(gs, s.sqlGrade(sql))
	}
	s.mu.Lock()
	if len(s.blocks) >= gradeMemoSize {
		clear(s.blocks)
	}
	s.blocks[b] = gs
	s.mu.Unlock()
	return gs
}

// repetitionFactor discounts guidance taught by few exemplars: 1 match
// teaches at ~75% strength, 3 at ~90%, 8+ at ~100%.
func repetitionFactor(matches int) float64 {
	if matches <= 0 {
		return 1
	}
	f := 1 - 0.33/(float64(matches)+0.3)
	if f > 1 {
		return 1
	}
	return f
}

// linkErrRate scales the base intent-error rate by prompt schema size and
// the benchmark variant's lexical noise.
func (s *Sim) linkErrRate(req Request, nTables, nCols int) float64 {
	rate := s.prof.linkErrBase
	if nTables > 2 {
		rate *= 1 + 0.12*float64(nTables-2)
	}
	if nCols > 10 {
		rate *= 1 + 0.015*float64(nCols-10)
	}
	if req.Task != nil {
		rate += req.Task.LinkNoise * 0.35
	}
	if req.CoT {
		rate *= s.prof.cotIntentFactor
	}
	if rate > 0.9 {
		rate = 0.9
	}
	return rate
}

// composeProb is the probability this sample realizes the gold composition
// on a guidance-needing class.
func (s *Sim) composeProb(g guidance) float64 {
	switch g {
	case guideExact:
		return 0.97
	case guideStructure:
		return 0.92
	case guideClause:
		return 0.60
	default:
		return s.prof.composePrior
	}
}

// styleProb is the probability this sample keeps the gold's surface form on
// an equivalence class (EM-relevant only).
func (s *Sim) styleProb(g guidance) float64 {
	switch g {
	case guideExact:
		return 0.97
	case guideStructure:
		return 0.90
	case guideClause:
		return 0.70
	default:
		return s.prof.styleAdherence
	}
}

// base is a sample's tree before hallucination and its text.
type base struct {
	sel *sqlir.Select
	sql string
}

// baseIndex is the slot of a sample's base among its request's four.
func baseIndex(d decisions) int {
	i := 0
	if d.composeOK {
		i |= 1
	}
	if d.driftOK {
		i |= 2
	}
	return i
}

// newBase applies a sample's persistent decisions to the gold query.
func newBase(req Request, d decisions) *base {
	sel := sqlir.Clone(req.Task.Gold)

	// 1. Composition: naive rewrite when the prompt fails to teach it.
	if needsGuidance(req.Task.Class) && !d.composeOK {
		sel = naiveRewrite(sel, req.Task.Class)
	} else if isStyleClass(req.Task.Class) && !d.styleOK {
		sel = styleRewrite(sel, req.Task.Class, req)
	}
	// 1b. Generic surface drift: equivalent-but-different formulations
	// (COUNT(*) vs COUNT(pk), integer comparison boundary shifts). These
	// cost EM but not EX — the zero-shot low-EM/high-EX signature of
	// Table 1 — and demonstrations anchor the surface form.
	if !d.driftOK {
		sel = surfaceDrift(sel, req, lazyrand.New(d.linkSeed+3))
	}

	// 2. Intent / schema-linking error: semantically wrong but executable,
	// and identical across samples (the model persistently misreads).
	if d.linkBad {
		sel = corruptIntent(sel, req, lazyrand.New(d.linkSeed+4))
	}
	return &base{sel: sel, sql: sqlir.String(sel)}
}
