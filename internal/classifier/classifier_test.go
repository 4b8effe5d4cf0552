package classifier

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/spider"
	"repro/internal/sqlir"
)

// paperPrune is the paper's pruning configuration, the one the pipeline
// runs with by default.
var paperPrune = PruneConfig{TauP: 0.5, TauN: 5, UseSteiner: true, TopK1: 4, TopK2: 5}

func corpus(t *testing.T) *spider.Corpus {
	t.Helper()
	return spider.GenerateSmall(5, 0.08)
}

// train fits a model on the corpus's training split.
func train(c *spider.Corpus) *Model {
	return Train(c.Train.Examples, UsedByExample(c.Train.Examples))
}

func TestUsedItemsExtraction(t *testing.T) {
	c := corpus(t)
	e := c.Dev.Examples[0]
	sel := sqlir.MustParse("SELECT T1.age FROM singer AS T1 JOIN band AS T2 ON T1.band_id = T2.id WHERE T2.genre = 'rock'")
	used := UsedItems(sel, e.DB)
	if want := []string{"band", "singer"}; !slices.Equal(used.Tables, want) {
		t.Errorf("tables = %v, want %v", used.Tables, want)
	}
	if want := []string{"band.genre", "band.id", "singer.age", "singer.band_id"}; !slices.Equal(used.Columns, want) {
		t.Errorf("columns = %v, want %v", used.Columns, want)
	}
}

func TestTrainAndScoreLexical(t *testing.T) {
	c := corpus(t)
	m := train(c)
	e := c.Dev.Examples[0]
	usedT := UsedItems(e.Gold, e.DB).Tables
	q := m.question(e.NL)
	scores := q.scoreTables(e.DB.Index())
	// Every used table should outscore the average unused table.
	var usedSum, unusedSum float64
	var usedN, unusedN int
	for i, s := range scores {
		if slices.Contains(usedT, e.DB.Index().Tables[i].Name) {
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
func tableRecall(kept []string, used []string) float64 {
	if len(used) == 0 {
		return 1
	}
	inKept := map[string]bool{}
	for _, t := range kept {
		inKept[strings.ToLower(t)] = true
	}
	hit := 0
	for _, t := range used {
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
	m := train(c)
	cfg := paperPrune
	var total, recall float64
	for _, e := range c.Dev.Examples {
		res := Prune(m, e.NL, e.DB, cfg)
		recall += tableRecall(res.KeptTables, UsedItems(e.Gold, e.DB).Tables)
		total++
	}
	if r := recall / total; r < 0.85 {
		t.Errorf("table recall %.3f < 0.85; pruning would cause error propagation", r)
	}
}

func TestPruneShrinksSchema(t *testing.T) {
	c := corpus(t)
	m := train(c)
	cfg := paperPrune
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
	m := train(c)
	cfg := paperPrune
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

// TestTopKDeterministic: the top k go by score, ties by name, whatever the
// items' order.
func TestTopKDeterministic(t *testing.T) {
	names := []string{"b", "c", "a"}
	scores := []float64{0.5, 0.9, 0.5}
	name := func(i int) string { return names[i] }
	got := make([]bool, 3)
	markTopK(scores, name, 2, got)
	if !got[1] || !got[2] || got[0] {
		t.Errorf("top 2 of %v %v = %v, want c and a", names, scores, got)
	}
	if i := argmax([]float64{0.5, 0.5}, name); i != 0 {
		t.Errorf("argmax of a tie between b and c = %s", names[i])
	}
}

func TestRecallEdgeCases(t *testing.T) {
	if tableRecall(nil, nil) != 1 {
		t.Error("empty used set should give recall 1")
	}
	if tableRecall([]string{"a"}, []string{"a", "b"}) != 0.5 {
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
