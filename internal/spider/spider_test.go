package spider

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	return GenerateSmall(42, 0.05)
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateSmall(7, 0.03)
	b := GenerateSmall(7, 0.03)
	if len(a.Dev.Examples) != len(b.Dev.Examples) {
		t.Fatal("sizes differ across runs with same seed")
	}
	for i := range a.Dev.Examples {
		if a.Dev.Examples[i].GoldSQL != b.Dev.Examples[i].GoldSQL || a.Dev.Examples[i].NL != b.Dev.Examples[i].NL {
			t.Fatalf("example %d differs across identical seeds", i)
		}
	}
}

func TestCorpusSplitSizes(t *testing.T) {
	c := smallCorpus(t)
	for _, b := range []*Benchmark{c.Train, c.Dev, c.DK, c.Syn, c.Realistic} {
		if len(b.Examples) == 0 {
			t.Errorf("%s: empty split", b.Name)
		}
		if len(b.Databases) == 0 {
			t.Errorf("%s: no databases", b.Name)
		}
	}
	if len(c.Train.Examples) <= len(c.Dev.Examples) {
		t.Error("train should be larger than dev")
	}
}

func TestFullSizesMatchTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus in -short mode")
	}
	c := GenerateSmall(1, 1)
	checks := []struct {
		b    *Benchmark
		q, d int
	}{
		{c.Train, TrainQueries, TrainDatabases},
		{c.Dev, DevQueries, DevDatabases},
		{c.DK, DKQueries, DKDatabases},
		{c.Syn, SynQueries, DevDatabases},
		{c.Realistic, RealisticQueries, DevDatabases},
	}
	for _, ck := range checks {
		if len(ck.b.Examples) != ck.q {
			t.Errorf("%s: %d queries, want %d", ck.b.Name, len(ck.b.Examples), ck.q)
		}
		if len(ck.b.Databases) != ck.d {
			t.Errorf("%s: %d databases, want %d", ck.b.Name, len(ck.b.Databases), ck.d)
		}
	}
}

// TestGoldExecutes is the load-bearing invariant: every generated gold SQL
// parses, round-trips and executes without error on its database.
func TestGoldExecutes(t *testing.T) {
	c := smallCorpus(t)
	for _, b := range []*Benchmark{c.Train, c.Dev, c.DK, c.Syn, c.Realistic} {
		for _, e := range b.Examples {
			sel, err := sqlir.Parse(e.GoldSQL)
			if err != nil {
				t.Fatalf("%s #%d: gold does not parse: %v\nSQL: %s", b.Name, e.ID, err, e.GoldSQL)
			}
			if got := sqlir.String(sel); got != e.GoldSQL {
				t.Fatalf("%s #%d: gold not canonical:\n%s\n%s", b.Name, e.ID, e.GoldSQL, got)
			}
			if _, err := sqlexec.Exec(e.DB, e.Gold); err != nil {
				t.Fatalf("%s #%d: gold does not execute: %v\nSQL: %s", b.Name, e.ID, err, e.GoldSQL)
			}
		}
	}
}

func TestSkeletonDiversity(t *testing.T) {
	c := smallCorpus(t)
	skeletons := map[string]bool{}
	for _, e := range c.Train.Examples {
		skeletons[sqlir.SkeletonString(e.Gold)] = true
	}
	if len(skeletons) < 15 {
		t.Errorf("only %d distinct skeletons in train; need a long tail", len(skeletons))
	}
}

func TestHardnessDistribution(t *testing.T) {
	c := smallCorpus(t)
	counts := map[string]int{}
	for _, e := range c.Dev.Examples {
		counts[e.Hardness]++
	}
	for _, h := range []string{"easy", "medium", "hard", "extra"} {
		if counts[h] == 0 {
			t.Errorf("hardness bucket %q empty: %v", h, counts)
		}
	}
}

func TestHardnessMonotone(t *testing.T) {
	easy := sqlir.MustParse("SELECT name FROM singer")
	medium := sqlir.MustParse("SELECT name FROM singer WHERE age > 5 AND country = 'US'")
	extra := sqlir.MustParse("SELECT name FROM a WHERE x NOT IN (SELECT y FROM b) UNION SELECT name FROM c WHERE z = 1 AND w = 2")
	if Hardness(easy) != "easy" {
		t.Errorf("simple select classified %s", Hardness(easy))
	}
	if Hardness(medium) == "easy" {
		t.Errorf("two-predicate select classified easy")
	}
	if Hardness(extra) != "extra" && Hardness(extra) != "hard" {
		t.Errorf("nested+union classified %s", Hardness(extra))
	}
}

func TestVariantStylesDiffer(t *testing.T) {
	c := smallCorpus(t)
	joinNL := func(b *Benchmark) string {
		var sb strings.Builder
		for _, e := range b.Examples[:10] {
			sb.WriteString(e.NL)
		}
		return sb.String()
	}
	std := joinNL(c.Dev)
	syn := joinNL(c.Syn)
	if std == syn {
		t.Error("SYN NL identical to standard NL")
	}
	for _, e := range c.Syn.Examples {
		if e.Variant != "syn" {
			t.Fatalf("variant tag missing: %q", e.Variant)
		}
		if e.LinkNoise == 0 {
			t.Fatal("SYN examples should carry link noise")
		}
	}
}

func TestSynonymizeReplacesSchemaTerms(t *testing.T) {
	got := synonymize("band name")
	if got == "band name" {
		t.Errorf("synonymize did not replace: %q", got)
	}
	if !strings.Contains(got, "music group") {
		t.Errorf("expected music group synonym, got %q", got)
	}
}

func TestRealisticDropsColumnMentions(t *testing.T) {
	// Realistic style comparison phrases never mention the column name.
	s := &sampler{style: StyleRealistic}
	c := domainColumn()
	p := s.wherePhrase(c, ">", numVal(40))
	if strings.Contains(p, c.NLName) {
		t.Errorf("realistic phrase mentions column: %q", p)
	}
}

func TestDatabaseShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := buildDatabase(domains[0], 0, rng)
	if db.Name != "concert" {
		t.Errorf("db name %q", db.Name)
	}
	if len(db.Tables) != 3 {
		t.Errorf("want 3 tables, got %d", len(db.Tables))
	}
	if len(db.ForeignKeys) != 2 {
		t.Errorf("want 2 FKs, got %d", len(db.ForeignKeys))
	}
	for _, tb := range db.Tables {
		if len(tb.Rows) < 12 {
			t.Errorf("table %s underpopulated: %d rows", tb.Name, len(tb.Rows))
		}
		if tb.PrimaryKey != "id" {
			t.Errorf("table %s missing pk", tb.Name)
		}
	}
	inst := buildDatabase(domains[0], 2, rng)
	if inst.Name != "concert_2" {
		t.Errorf("instance naming: %q", inst.Name)
	}
}

func TestClassCoverage(t *testing.T) {
	c := GenerateSmall(11, 0.12)
	seen := map[CompositionClass]int{}
	for _, e := range c.Train.Examples {
		seen[e.Class]++
	}
	for _, cl := range []CompositionClass{ClassPlain, ClassJoin, ClassGroup, ClassExclusionJoin,
		ClassSuperlative, ClassIntersect, ClassUnion, ClassCountDistinct, ClassOrderLimit} {
		if seen[cl] == 0 {
			t.Errorf("composition class %s never sampled: %v", cl, seen)
		}
	}
}

func TestTableStats(t *testing.T) {
	c := smallCorpus(t)
	s := c.Dev.Stat()
	if s.Queries != len(c.Dev.Examples) || s.Databases != len(c.Dev.Databases) {
		t.Errorf("stat mismatch: %+v", s)
	}
	if s.AvgNLLen <= 0 || s.AvgSQLLen <= 0 {
		t.Errorf("length stats not positive: %+v", s)
	}
}

// domainColumn builds a column fixture for the realistic-style test.
func domainColumn() schema.Column {
	return schema.Column{Name: "age", NLName: "age", Type: schema.TypeNumber}
}

func numVal(n float64) schema.Value { return schema.N(n) }
