package classifier

import (
	"strings"
	"testing"

	"repro/internal/spider"
	"repro/internal/sqlir"
)

func corpus(t *testing.T) *spider.Corpus {
	t.Helper()
	return spider.GenerateSmall(5, 0.08)
}

func TestUsedItemsExtraction(t *testing.T) {
	c := corpus(t)
	e := c.Dev.Examples[0]
	sel := sqlir.MustParse("SELECT T1.age FROM singer AS T1 JOIN band AS T2 ON T1.band_id = T2.id WHERE T2.genre = 'rock'")
	tables, cols := UsedItems(sel, e.DB)
	if !tables["singer"] || !tables["band"] {
		t.Errorf("tables = %v", tables)
	}
	for _, want := range []string{"singer.age", "singer.band_id", "band.id", "band.genre"} {
		if !cols[want] {
			t.Errorf("missing column %s in %v", want, cols)
		}
	}
}

func TestTrainAndScoreLexical(t *testing.T) {
	c := corpus(t)
	m := Train(c.Train.Examples)
	e := c.Dev.Examples[0]
	usedT, _ := UsedItems(e.Gold, e.DB)
	scores := m.ScoreTables(e.NL, e.DB)
	// Every used table should outscore the average unused table.
	var usedSum, unusedSum float64
	var usedN, unusedN int
	for name, s := range scores {
		if usedT[name] {
			usedSum += s
			usedN++
		} else {
			unusedSum += s
			unusedN++
		}
	}
	if usedN == 0 {
		t.Fatal("no used tables")
	}
	if unusedN > 0 && usedSum/float64(usedN) <= unusedSum/float64(unusedN) {
		t.Errorf("used tables do not outscore unused: used=%.3f unused=%.3f NL=%q",
			usedSum/float64(usedN), unusedSum/float64(unusedN), e.NL)
	}
}

// tableRecall computes table-level pruning recall against the gold-used tables:
// the fraction of needed tables that survived pruning.
func tableRecall(kept []string, used map[string]bool) float64 {
	if len(used) == 0 {
		return 1
	}
	inKept := map[string]bool{}
	for _, t := range kept {
		inKept[strings.ToLower(t)] = true
	}
	hit := 0
	for t := range used {
		if inKept[strings.ToLower(t)] {
			hit++
		}
	}
	return float64(hit) / float64(len(used))
}

// TestPruneRecall verifies the high-recall property the paper requires:
// pruning must rarely drop a table the gold SQL needs.
func TestPruneRecall(t *testing.T) {
	c := corpus(t)
	m := Train(c.Train.Examples)
	cfg := DefaultPruneConfig()
	var total, recall float64
	for _, e := range c.Dev.Examples {
		res := Prune(m, e.NL, e.DB, cfg)
		usedT, _ := UsedItems(e.Gold, e.DB)
		recall += tableRecall(res.KeptTables, usedT)
		total++
	}
	if r := recall / total; r < 0.85 {
		t.Errorf("table recall %.3f < 0.85; pruning would cause error propagation", r)
	}
}

func TestPruneShrinksSchema(t *testing.T) {
	c := corpus(t)
	m := Train(c.Train.Examples)
	cfg := DefaultPruneConfig()
	var before, after int
	for _, e := range c.Dev.Examples {
		res := Prune(m, e.NL, e.DB, cfg)
		for _, tb := range e.DB.Tables {
			before += len(tb.Columns)
		}
		for _, tb := range res.DB.Tables {
			after += len(tb.Columns)
		}
	}
	if after >= before {
		t.Errorf("pruning did not shrink schema: %d -> %d columns", before, after)
	}
}

func TestPruneKeepsConnectivity(t *testing.T) {
	c := corpus(t)
	m := Train(c.Train.Examples)
	cfg := DefaultPruneConfig()
	for _, e := range c.Dev.Examples[:20] {
		res := Prune(m, e.NL, e.DB, cfg)
		if len(res.DB.Tables) == 0 {
			t.Fatalf("pruned schema empty for %q", e.NL)
		}
		// Primary keys must survive so joins remain expressible.
		for _, tb := range res.DB.Tables {
			if tb.PrimaryKey != "" && !tb.HasColumn(tb.PrimaryKey) {
				t.Errorf("table %s lost its primary key", tb.Name)
			}
		}
	}
}

func TestTopKDeterministic(t *testing.T) {
	scores := map[string]float64{"a": 0.5, "b": 0.5, "c": 0.9}
	got := TopK(scores, 2)
	if got[0] != "c" || got[1] != "a" {
		t.Errorf("TopK = %v", got)
	}
}

func TestRecallEdgeCases(t *testing.T) {
	if tableRecall(nil, nil) != 1 {
		t.Error("empty used set should give recall 1")
	}
	if tableRecall([]string{"a"}, map[string]bool{"a": true, "b": true}) != 0.5 {
		t.Error("partial recall wrong")
	}
}

func TestContentWordsSingularizes(t *testing.T) {
	words := contentWords("What are the names of singers?")
	has := map[string]bool{}
	for _, w := range words {
		has[w] = true
	}
	if !has["singer"] || !has["name"] {
		t.Errorf("singularization failed: %v", words)
	}
	if has["the"] || has["what"] {
		t.Errorf("stopwords leaked: %v", words)
	}
}
