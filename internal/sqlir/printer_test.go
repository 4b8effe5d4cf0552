package sqlir_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// checkPrinter requires String and Skeleton of sel to equal the
// references.
func checkPrinter(t *testing.T, sel *sqlir.Select) string {
	t.Helper()
	got, want := sqlir.String(sel), sqlir.ReferenceString(sel)
	if got != want {
		t.Fatalf("String = %q, reference %q", got, want)
	}
	if got, want := sqlir.Skeleton(sel), sqlir.ReferenceSkeleton(sel); !slices.Equal(got, want) {
		t.Fatalf("Skeleton of %q = %q, reference %q", want, got, want)
	}
	return got
}

// TestPrinterMatchesReferenceOnCorpus holds String and Skeleton to the
// references over every gold tree of every split of the paper-scale
// corpus, and each gold's text to its printed tree.
func TestPrinterMatchesReferenceOnCorpus(t *testing.T) {
	c := spider.GenerateSmall(1, 1.0)
	n := 0
	for _, b := range []*spider.Benchmark{c.Train, c.Dev, c.DK, c.Syn, c.Realistic} {
		for _, e := range b.Examples {
			if got := checkPrinter(t, e.Gold); got != e.GoldSQL {
				t.Fatalf("%s task %d: String = %q, GoldSQL %q", b.Name, e.ID, got, e.GoldSQL)
			}
			n++
		}
	}
	t.Logf("%d gold trees", n)
}

// samples is an LLM client that keeps every completion its Sim returns.
type samples struct {
	llm.Client
	sqls []string
}

func (s *samples) Complete(req llm.Request) llm.Response {
	resp := s.Client.Complete(req)
	s.sqls = append(s.sqls, resp.SQLs...)
	return resp
}

// TestPrinterMatchesReferenceOnSamples holds the printer to the reference
// over every completion the simulated LLM gives the paper-scale pipeline
// on the dev set, and over every answer the vote adapts from them: each
// one that parses must print back to itself under both printers.
func TestPrinterMatchesReferenceOnSamples(t *testing.T) {
	c := spider.GenerateSmall(1, 1.0)
	rec := &samples{Client: llm.NewSim(llm.ChatGPT)}
	p := core.New(c.Train.Examples, rec, core.DefaultConfig())
	texts := map[string]bool{}
	for _, e := range c.Dev.Examples {
		texts[p.Translate(e).SQL] = true
	}
	for _, s := range rec.sqls {
		texts[s] = true
	}
	parsed := 0
	for s := range texts {
		sel, err := sqlir.Parse(s)
		if err != nil {
			continue
		}
		parsed++
		if got := checkPrinter(t, sel); got != s {
			t.Fatalf("%q prints back as %q", s, got)
		}
	}
	if parsed < len(texts)*9/10 {
		t.Fatalf("only %d of %d distinct completions and answers parse", parsed, len(texts))
	}
	t.Logf("%d of %d distinct completions and answers parse (%d completions)", parsed, len(texts), len(rec.sqls))
}

// FuzzPrinterMatchesReference holds String and Skeleton to the references
// over everything the parser accepts.
func FuzzPrinterMatchesReference(f *testing.F) {
	fuzzSeeds(f)
	f.Add("SELECT a FROM t WHERE s = '' OR s = '''' OR s = 'a''b''c' UNION ALL SELECT COUNT(DISTINCT b) FROM u")
	f.Add("SELECT " + strings.Repeat("a_long_column_name, ", 20) + "b FROM t WHERE c LIKE '%x''%'")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<14 {
			t.Skip("input too large")
		}
		if sel, err := sqlir.Parse(input); err == nil {
			checkPrinter(t, sel)
		}
	})
}

// multiClause is a query of every clause but a compound, shorter than
// String's stack buffer.
const multiClause = "SELECT T1.name, COUNT(*) FROM singer AS T1 JOIN concert AS T2 ON T1.singer_id = T2.singer_id WHERE T2.year > 2014 AND T1.country = 'France' GROUP BY T1.name HAVING COUNT(*) >= 2 ORDER BY COUNT(*) DESC LIMIT 3"

// TestStringAllocatesOnlyItsResult pins String of a query that fits its
// stack buffer at one allocation, the result.
func TestStringAllocatesOnlyItsResult(t *testing.T) {
	sel, err := sqlir.Parse(multiClause)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { sqlir.String(sel) }); allocs != 1 {
		t.Errorf("String allocates %v times, want 1", allocs)
	}
}

// BenchmarkString prints one multi-clause query.
func BenchmarkString(b *testing.B) {
	sel, err := sqlir.Parse(multiClause)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sqlir.String(sel)
	}
}
