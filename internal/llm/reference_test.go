package llm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchfix"
	"repro/internal/prompt"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// refReadPrompt is how the simulated LLM read a prompt before its blocks
// memo: the gold graded from its tree, every demonstration SQL of the
// whole prompt (prompt.DemoSQLs) parsed and graded afresh, and the task
// schema counted over the whole prompt (prompt.TaskSchemaSize).
func refReadPrompt(req Request) (guidanceInfo, int, int) {
	tables, columns := prompt.TaskSchemaSize(req.Prompt)
	if req.Task == nil {
		return guidanceInfo{}, tables, columns
	}
	gold := gradeOf(sqlir.Skeleton(req.Task.Gold))
	var counts [guideExact + 1]int
	for demoSQL := range prompt.DemoSQLs(req.Prompt) {
		g := refGrade(demoSQL)
		switch {
		case !g.ok:
		case g.keywords == gold.keywords:
			counts[guideExact]++
		case g.structure == gold.structure:
			counts[guideStructure]++
		case g.clause == gold.clause:
			counts[guideClause]++
		}
	}
	for _, lvl := range []guidance{guideExact, guideStructure, guideClause} {
		if counts[lvl] > 0 {
			return guidanceInfo{level: lvl, matches: counts[lvl]}, tables, columns
		}
	}
	return guidanceInfo{}, tables, columns
}

// refGrade grades SQL text without a memo.
func refGrade(sql string) grade {
	sel, err := sqlir.Parse(sql)
	if err != nil {
		return grade{}
	}
	return gradeOf(sqlir.Skeleton(sel))
}

// CheckReadMatchesReference requires s's reading of req, guidance level,
// match count and task schema size, to equal refReadPrompt's, and every
// block s has memoised to be free of "### Task".
func CheckReadMatchesReference(tb testing.TB, s *Sim, req Request) {
	tb.Helper()
	g, tables, columns := s.readPrompt(req)
	wg, wt, wc := refReadPrompt(req)
	if g != wg || tables != wt || columns != wc {
		tb.Fatalf("readPrompt = %+v, %d tables, %d columns; reference %+v, %d, %d; over %q", g, tables, columns, wg, wt, wc, req.Prompt)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for b := range s.blocks {
		if strings.Contains(b, prompt.TaskHeader) {
			tb.Fatalf("memoised block %q holds %q", b, prompt.TaskHeader)
		}
	}
}

// ClearMemos empties s's grade and block memos, as a full memo is cleared.
func ClearMemos(s *Sim) {
	s.mu.Lock()
	clear(s.grades)
	clear(s.blocks)
	s.mu.Unlock()
}

// checkColdWarmCleared holds a Sim's reading of each request to the
// reference with a cold memo, a warm one and after a clear.
func checkColdWarmCleared(tb testing.TB, reqs []Request) {
	tb.Helper()
	s := NewSim(ChatGPT)
	for _, pass := range []string{"cold", "warm", "cleared"} {
		if pass == "cleared" {
			ClearMemos(s)
		}
		for _, req := range reqs {
			CheckReadMatchesReference(tb, s, req)
		}
	}
}

// TestReadEdgeCases holds readPrompt to the reference on prompts whose
// blocks put "### Task" where the memo must not take it for a
// demonstration block's text, and on unusual block lists.
func TestReadEdgeCases(t *testing.T) {
	c := corpus()
	e := c.Dev.Examples[0]
	demo := func(nl, sql string) string { return prompt.NewDemo(e.DB, nl, sql).Text }
	plain := demo("demo question", e.GoldSQL)
	other := demo("another question", c.Dev.Examples[1].GoldSQL)
	b := prompt.NewBuilder("-- inst", e.DB, e.NL, 0)
	b.Add(prompt.Demo{Text: plain})
	withInstructions := b.Result().Text
	task := withInstructions[len(withInstructions)-1]
	inQuestion := demo("what does ### Task mean?", e.GoldSQL)
	inSQL := demo("q", "SELECT name FROM singer WHERE name = '### Task'")
	atLineStart := "### Task in a block\nSQL: SELECT 1 FROM t\n"
	cases := map[string]prompt.Text{
		"### Task in a question":          {plain, inQuestion, other, task},
		"### Task in a SQL line":          {inSQL, plain, other, task},
		"### Task starting a line":        {plain, atLineStart, other, task},
		"instructions block":              withInstructions,
		"empty block":                     {"", plain, "", task},
		"no task section":                 {plain, other, inSQL + other},
		"no demonstrations":               {task},
		"empty prompt":                    {},
		"whole prompt as one block":       {plain + other + task},
		"demonstrations and task joined":  {plain, other + task},
		"block repeated within a prompt":  {plain, other, plain, plain, task},
		"no SQL line":                     {"Schema:\n  t(a)\nQ: q\n", task},
		"two SQL lines in a block":        {plain + other, task},
		"SQL line without its space":      {"SQL:SELECT 1 FROM t\n", task},
		"task section before a demo":      {task + "\n", plain},
		"unparseable demonstration":       {demo("q", "SELEC broken FROM"), plain, task},
		"task header inside instructions": {"-- answer the ### Task below\n", plain, task},
	}
	var reqs []Request
	for name, text := range cases {
		req := Request{Prompt: text, Task: e, N: 1}
		t.Run(name, func(t *testing.T) { checkColdWarmCleared(t, []Request{req}) })
		reqs = append(reqs, req, Request{Prompt: text, N: 1})
	}
	checkColdWarmCleared(t, reqs)
}

// FuzzReadMatchesReference cuts a text into random newline-terminated
// blocks (a set bit i of cuts ends a block after line i, modulo 64) and
// holds readPrompt to the reference over them, with a cold, a warm and a
// cleared memo, for a dev task's gold and without a task.
func FuzzReadMatchesReference(f *testing.F) {
	c := spider.GenerateSmall(21, 0.02)
	golds := c.Dev.Examples
	f.Add("### Example\nSchema:\n  t(a, b)\nQ: q\nSQL: SELECT a FROM t\n\n### Task\nSchema:\n  t(a, b)\n  u(c)\nQ: task\nSQL:", uint64(0b101101), uint8(0))
	f.Add("-- inst\nSQL:  SELECT COUNT(*) FROM t \r\nx ### Task y\n  v(a,b)\nSQL: SELECT 2\n### Task\n  w()\n Q: z\n  t(a)\n", uint64(1<<63|7), uint8(1))
	f.Add("SQL: SELECT a FROM t WHERE b = '### Task'\n(a)\n### Taskt(a, b)\nSQL: SELECT a FROM t\n\n", ^uint64(0), uint8(2))
	f.Add("SQL: "+golds[0].GoldSQL+"\nSQL: "+golds[0].GoldSQL+"\n\nSQL: SELECT x FROM y\n### Task\n  t(a)\nQ: q\nSQL: after the task\n  u(b)\n", uint64(5), uint8(0))
	f.Fuzz(func(t *testing.T, text string, cuts uint64, gold uint8) {
		var blocks prompt.Text
		start := 0
		for i, line := 0, 0; i < len(text); i++ {
			if text[i] != '\n' {
				continue
			}
			if cuts>>(line%64)&1 == 1 {
				blocks = append(blocks, text[start:i+1])
				start = i + 1
			}
			line++
		}
		if start < len(text) {
			blocks = append(blocks, text[start:])
		}
		e := golds[int(gold)%len(golds)]
		checkColdWarmCleared(t, []Request{{Prompt: blocks, Task: e, N: 1}, {Prompt: blocks, N: 1}})
	})
}

// TestGoldTextGradeMatchesTree: the gold is graded from its text, which
// is exact because every example's GoldSQL is its Gold printed and
// printing round-trips. Check the two grades agree for every gold of every
// split and variant of the corpora the experiments, the server and the
// examples generate, and for the tenant fixtures as the catalog parses
// them.
func TestGoldTextGradeMatchesTree(t *testing.T) {
	s := NewSim(ChatGPT)
	check := func(where string, e *spider.Example) {
		if got, want := s.sqlGrade(e.GoldSQL), gradeOf(sqlir.Skeleton(e.Gold)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the grade of %q is %+v, of its tree %+v", where, e.GoldSQL, got, want)
		}
	}
	corpora := []struct {
		seed  int64
		scale float64
	}{{1, 1}, {2, 1}, {3, 1}, {1, 0.08}, {3, 0.08}, {5, 0.08}, {9, 0.06}}
	for _, cs := range corpora {
		c := spider.GenerateSmall(cs.seed, cs.scale)
		for _, b := range []*spider.Benchmark{c.Train, c.Dev, c.DK, c.Syn, c.Realistic} {
			for _, e := range b.Examples {
				check(fmt.Sprintf("seed %d scale %g %s task %d", cs.seed, cs.scale, b.Name, e.ID), e)
			}
		}
	}
	var tenant []string
	for _, d := range benchfix.TenantDemos() {
		tenant = append(tenant, d.SQL)
	}
	// The tenant-mixed benchmark's and the load generator's tenant
	// demonstrations.
	tenant = append(tenant, "SELECT COUNT(*) FROM items", "SELECT AVG(price) FROM items", "SELECT name FROM items", "SELECT name FROM items ORDER BY price")
	for _, sql := range tenant {
		sel, err := sqlir.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		check("tenant fixture", &spider.Example{Gold: sel, GoldSQL: sqlir.String(sel)})
	}
}
