package eval

import (
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// The tests below hold Gold.Grade to the pair of reference metrics it
// replaces on the served path, ExactSetMatchSQL and ExecutionMatch,
// prediction by prediction.

// checkGrade fails t when g, built from gold on db, grades pred other than
// the reference metrics do, and returns the reference's grades.
func checkGrade(t *testing.T, g *Gold, db *schema.Database, pred, gold string) (em, ex bool) {
	t.Helper()
	em, ex = ExactSetMatchSQL(pred, gold), ExecutionMatch(db, pred, gold)
	if gotEM, gotEX := g.Grade(pred); gotEM != em || gotEX != ex {
		t.Errorf("gold %q, prediction %q: Grade = (%v, %v), reference (%v, %v)", gold, pred, gotEM, gotEX, em, ex)
	}
	return em, ex
}

// recorder forwards to its LLM client and keeps the last response's
// completions.
type recorder struct {
	llm.Client
	last []string
}

func (r *recorder) Complete(req llm.Request) llm.Response {
	resp := r.Client.Complete(req)
	r.last = resp.SQLs
	return resp
}

// TestGoldMatchesReferenceOnCorpus grades, for every dev, DK, Syn and
// Realistic task at paper scale, the gold text itself, every distinct
// completion of the task's one LLM call, the answer PURPLE serves and
// another task's gold on the same database, each against a Gold built once
// per task.
func TestGoldMatchesReferenceOnCorpus(t *testing.T) {
	c := spider.GenerateSmall(1, 1.0)
	rec := &recorder{Client: llm.NewSim(llm.ChatGPT)}
	p := core.New(c.Train.Examples, rec, core.DefaultConfig())
	var n struct{ tasks, preds, unparsed, failed, em, ex, goldText int }
	for _, split := range []*spider.Benchmark{c.Dev, c.DK, c.Syn, c.Realistic} {
		for i, e := range split.Examples {
			served := p.Translate(e).SQL
			preds := append([]string{e.GoldSQL, served}, rec.last...)
			for _, o := range split.Examples[i+1:] {
				if o.DB == e.DB && o.GoldSQL != e.GoldSQL {
					preds = append(preds, o.GoldSQL)
					break
				}
			}
			g := NewGold(e.DB, e.GoldSQL)
			seen := map[string]bool{}
			for _, pred := range preds {
				if seen[pred] {
					continue
				}
				seen[pred] = true
				em, ex := checkGrade(t, g, e.DB, pred, e.GoldSQL)
				n.preds++
				n.em += b2i(em)
				n.ex += b2i(ex)
				if sel, err := sqlir.Parse(pred); err != nil {
					n.unparsed++
				} else if _, err := sqlexec.Exec(e.DB, sel); err != nil {
					n.failed++
				}
			}
			n.tasks++
			n.goldText += b2i(served == e.GoldSQL)
		}
	}
	t.Logf("%d tasks, %d distinct predictions: %d unparseable, %d failing to execute, %d EM, %d EX; %d served answers are the gold's text",
		n.tasks, n.preds, n.unparsed, n.failed, n.em, n.ex, n.goldText)
	if n.tasks != 3111 {
		t.Errorf("%d tasks, want 3,111", n.tasks)
	}
	// The simulated LLM's completions all parse; TestGoldEdgeCases and
	// FuzzGoldMatchesReference grade unparseable predictions.
	if n.failed == 0 || n.em == n.preds || n.ex == n.preds {
		t.Error("the predictions must include non-executing and mismatching SQL")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// edgeDB is a two-table database: pet's (name, kind) rows and tag's
// one-column rows have the same canonical encoding, because tag's labels
// hold the encoding's column separator.
func edgeDB() *schema.Database {
	text := func(s string) schema.Value { return schema.S(s) }
	return &schema.Database{
		Name: "edge",
		Tables: []*schema.Table{
			{
				Name: "pet", NLName: "pet", PrimaryKey: "id",
				Columns: []schema.Column{
					{Name: "id", Type: schema.TypeNumber, NLName: "id"},
					{Name: "name", Type: schema.TypeText, NLName: "name"},
					{Name: "kind", Type: schema.TypeText, NLName: "kind"},
				},
				Rows: [][]schema.Value{
					{schema.N(1), text("rex"), text("dog")},
					{schema.N(2), text("ada"), text("cat")},
					{schema.N(3), text("kit"), text("cat")},
				},
			},
			{
				Name: "tag", NLName: "tag",
				Columns: []schema.Column{{Name: "label", Type: schema.TypeText, NLName: "label"}},
				Rows: [][]schema.Value{
					{text("rex\x1fdog")},
					{text("ada\x1fcat")},
					{text("kit\x1fcat")},
				},
			},
		},
	}
}

// TestGoldEdgeCases grades the cases the corpus rarely or never shows and
// states each case's expected grades, so a change to the comparison the
// reference shares with Gold fails too.
func TestGoldEdgeCases(t *testing.T) {
	db := edgeDB()
	for _, tc := range []struct {
		name, gold, pred string
		em, ex           bool
	}{
		{"gold text", "SELECT name FROM pet WHERE id > 1", "SELECT name FROM pet WHERE id > 1", true, true},
		{"values masked", "SELECT name FROM pet WHERE id > 1", "SELECT name FROM pet WHERE id > 2", true, false},
		{"same rows, other query", "SELECT name FROM pet WHERE id > 1", "SELECT name FROM pet WHERE kind = 'cat'", false, true},
		{"unparseable prediction", "SELECT name FROM pet", "SELECT FROM pet WHERE", false, false},
		{"prediction fails to execute", "SELECT name FROM pet", "SELECT nosuch FROM pet", false, false},
		{"unparseable gold, its own text", "SELECT name FROM", "SELECT name FROM", false, false},
		{"unparseable gold", "SELECT name FROM", "SELECT name FROM pet", false, false},
		{"gold fails to execute, its own text", "SELECT nosuch FROM pet", "SELECT nosuch FROM pet", true, false},
		{"gold fails to execute", "SELECT nosuch FROM pet", "SELECT name FROM pet", false, false},
		{"zero rows, other width", "SELECT name FROM pet WHERE id > 9", "SELECT name, kind FROM pet WHERE id > 5", false, true},
		{"zero rows against rows", "SELECT name FROM pet WHERE id > 9", "SELECT name FROM pet WHERE id > 1", true, false},
		{"ordered gold, unordered prediction", "SELECT name FROM pet ORDER BY name", "SELECT name FROM pet", false, false},
		{"unordered gold, ordered prediction", "SELECT name FROM pet", "SELECT name FROM pet ORDER BY name", false, true},
		{"ordered both ways", "SELECT name FROM pet ORDER BY name", "SELECT name FROM pet ORDER BY name DESC", false, false},
		{"other width, same encoding", "SELECT name, kind FROM pet", "SELECT label FROM tag", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			em, ex := checkGrade(t, NewGold(db, tc.gold), db, tc.pred, tc.gold)
			if em != tc.em || ex != tc.ex {
				t.Errorf("reference grades (%v, %v), want (%v, %v)", em, ex, tc.em, tc.ex)
			}
		})
	}
}

// FuzzGoldMatchesReference grades arbitrary predictions against arbitrary
// golds on the corpus databases (the dbi-th, cyclically); same grades the
// gold's own text.
func FuzzGoldMatchesReference(f *testing.F) {
	c := spider.GenerateSmall(7, 0.02)
	dbs := c.Dev.Databases
	index := map[*schema.Database]uint8{}
	for i, db := range dbs {
		index[db] = uint8(i)
	}
	dev := c.Dev.Examples
	for i, e := range dev[:min(32, len(dev))] {
		// The gold of the next task on the same database.
		o := dev[(i+len(dbs))%len(dev)]
		f.Add(o.GoldSQL, e.GoldSQL, index[e.DB], i%2 == 0)
	}
	f.Add("SELECT FROM WHERE", "SELECT name FROM", uint8(0), true)
	f.Fuzz(func(t *testing.T, pred, gold string, dbi uint8, same bool) {
		if len(pred)+len(gold) > 1<<12 {
			t.Skip("input too large")
		}
		if same {
			pred = gold
		}
		db := dbs[int(dbi)%len(dbs)]
		checkGrade(t, NewGold(db, gold), db, pred, gold)
	})
}
