package eval

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// Benchmarks for the hottest repeat-execution loop in the repo: the TS
// metric re-executes the same gold/pred pair across every distilled
// database instance. BenchmarkExecTS measures the prepared-statement path
// (plan once via the shared cache, execute per instance) and is gated in
// BENCH_executor.txt; BenchmarkExecTSUnprepared measures the pre-refactor
// cost model (parse + plan per instance) on the same suite.

// benchSuite is the gated fixture: the first dev example of a small corpus
// and its distilled suite.
func benchSuite(b *testing.B) (*Suite, *spider.Example) {
	b.Helper()
	c := spider.GenerateSmall(123, 0.05)
	ex := c.Dev.Examples[0]
	suite := BuildSuite(ex.DB, []*sqlir.Select{ex.Gold}, DefaultSuiteConfig())
	return suite, ex
}

func BenchmarkExecTS(b *testing.B) {
	suite, ex := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !TestSuiteMatch(ex.DB, suite, ex.GoldSQL, ex.GoldSQL) {
			b.Fatal("gold must match itself")
		}
	}
}

func BenchmarkExecTSUnprepared(b *testing.B) {
	suite, ex := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !testSuiteMatchUnprepared(ex.DB, suite, ex.GoldSQL, ex.GoldSQL) {
			b.Fatal("gold must match itself")
		}
	}
}

// testSuiteMatchUnprepared is the pre-refactor TS path: every execution
// parses and plans from scratch.
func testSuiteMatchUnprepared(db *schema.Database, suite *Suite, predSQL, goldSQL string) bool {
	gres, err := sqlexec.ExecSQL(db, goldSQL)
	if err != nil {
		return false
	}
	pres, err := sqlexec.ExecSQL(db, predSQL)
	if err != nil {
		return false
	}
	if !resultsEqual(pres, gres) {
		return false
	}
	for _, inst := range suite.Instances {
		gres, err := sqlexec.ExecSQL(inst, goldSQL)
		if err != nil {
			continue
		}
		pres, err := sqlexec.ExecSQL(inst, predSQL)
		if err != nil {
			return false
		}
		if !resultsEqual(pres, gres) {
			return false
		}
	}
	return true
}

// BenchmarkBuildSuite measures distillation itself — probes and mutants are
// prepared once and re-executed across candidate instances.
func BenchmarkBuildSuite(b *testing.B) {
	c := spider.GenerateSmall(123, 0.05)
	ex := c.Dev.Examples[0]
	var probes []*sqlir.Select
	for _, e := range c.Dev.Examples {
		if e.DB == ex.DB {
			probes = append(probes, e.Gold)
		}
		if len(probes) == 8 {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSuite(ex.DB, probes, DefaultSuiteConfig())
	}
}

var (
	servedOnce    sync.Once
	servedTasks   []*spider.Example
	servedAnswers []string

	// gradeSink keeps the benchmarks' grades live.
	gradeSink [2]bool
)

// servedDev translates every dev task of the paper-scale corpus with the
// pipeline a server builds, once per test process, and returns the tasks
// and the answers a server serves for them.
func servedDev() ([]*spider.Example, []string) {
	servedOnce.Do(func() {
		c := spider.GenerateSmall(1, 1.0)
		p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
		servedTasks = c.Dev.Examples
		servedAnswers = make([]string, len(servedTasks))
		for i, e := range servedTasks {
			servedAnswers[i] = p.Translate(e).SQL
		}
	})
	return servedTasks, servedAnswers
}

// BenchmarkGradeOnce is one served answer graded as ask-cold grades it,
// on the task's first grade: the gold built, then the answer graded
// against it. Iterations cycle over the dev tasks in order. Gated in
// BENCH_executor.txt.
func BenchmarkGradeOnce(b *testing.B) {
	tasks, answers := servedDev()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(tasks)
		gradeSink[0], gradeSink[1] = NewGold(tasks[k].DB, tasks[k].GoldSQL).Grade(answers[k])
	}
}

// BenchmarkGradeAgain is one served answer graded as bulk-cold grades it
// after its first pass: against the task's gold, built before the timer
// starts. Gated in BENCH_executor.txt.
func BenchmarkGradeAgain(b *testing.B) {
	tasks, answers := servedDev()
	golds := make([]*Gold, len(tasks))
	for k, e := range tasks {
		golds[k] = NewGold(e.DB, e.GoldSQL)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(tasks)
		gradeSink[0], gradeSink[1] = golds[k].Grade(answers[k])
	}
}
