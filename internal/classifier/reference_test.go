package classifier

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/steiner"
)

// The scorer and pruner the one-pass Prune replaced: per-item word-set
// maps, name variants split again for every question, a score map per
// table list and per column list, map-based top-k, and a schema prune
// that matched names case-insensitively. The tests below hold Prune's
// scores to these bit for bit and its results exactly.

// refScoreTables returns a relevance probability per table name for the query.
func refScoreTables(m *Model, nl string, db *schema.Database) map[string]float64 {
	words := refContentWords(nl)
	out := map[string]float64{}
	for _, t := range db.Tables {
		out[strings.ToLower(t.Name)] = refScoreItem(m, words, refItemNameVariants(t.Name, t.NLName))
	}
	return out
}

// refScoreColumns returns a relevance probability per column of one table.
func refScoreColumns(m *Model, nl string, t *schema.Table) map[string]float64 {
	words := refContentWords(nl)
	out := map[string]float64{}
	for _, c := range t.Columns {
		out[strings.ToLower(c.Name)] = refScoreItem(m, words, refItemNameVariants(c.Name, c.NLName))
	}
	return out
}

// refScoreItem produces a bounded [0,1] relevance score: the maximum of
// direct lexical recall and the learned association signal.
func refScoreItem(m *Model, nlWords []string, variants [][]string) float64 {
	wordSet := map[string]bool{}
	for _, w := range nlWords {
		wordSet[w] = true
	}
	best := 0.0
	for _, tokens := range variants {
		if len(tokens) == 0 {
			continue
		}
		hit := 0
		for _, tok := range tokens {
			if wordSet[tok] {
				hit++
			}
		}
		lex := float64(hit) / float64(len(tokens))
		if lex > best {
			best = lex
		}
		var learned float64
		var used float64
		for _, w := range nlWords {
			total := m.wordTotal[w]
			if total < 3 {
				continue
			}
			row := m.assoc[w]
			var s float64
			for _, tok := range tokens {
				if v := row[tok]; v/total > s {
					s = v / total
				}
			}
			learned += s
			used++
		}
		if used > 0 {
			learned = learned / used
			if l := learned * 0.85; l > best {
				best = l
			}
		}
	}
	if best > 1 {
		best = 1
	}
	return best
}

func refNameTokensOf(name string) []string {
	return strings.Split(strings.ToLower(name), "_")
}

func refItemNameVariants(sqlName, nlName string) [][]string {
	v := [][]string{refNameTokensOf(sqlName)}
	if nlName != "" {
		v = append(v, strings.Fields(strings.ToLower(nlName)))
	}
	return v
}

func refContentWords(nl string) []string {
	var out []string
	word := strings.Builder{}
	flush := func() {
		if word.Len() == 0 {
			return
		}
		w := strings.ToLower(word.String())
		word.Reset()
		if stopwords[w] {
			return
		}
		out = append(out, w)
		if strings.HasSuffix(w, "s") && len(w) > 3 {
			out = append(out, strings.TrimSuffix(w, "s"))
		}
	}
	for _, r := range nl {
		if r == ' ' || r == ',' || r == '?' || r == '.' || r == '\'' || r == '"' {
			flush()
			continue
		}
		word.WriteRune(r)
	}
	flush()
	return out
}

func refTopK(scores map[string]float64, k int) []string {
	type kv struct {
		name  string
		score float64
	}
	var all []kv
	for n, s := range scores {
		all = append(all, kv{n, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].name < all[j].name
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].name
	}
	return out
}

func refPrune(m *Model, nl string, db *schema.Database, cfg PruneConfig) PruneResult {
	tScores := refScoreTables(m, nl, db)

	var kept []string
	if cfg.UseSteiner {
		var terms []string
		for t, s := range tScores {
			if s > cfg.TauP {
				terms = append(terms, t)
			}
		}
		if len(terms) == 0 {
			terms = refTopK(tScores, 1)
		}
		adj := db.Adjacency()
		kept = steiner.Tree(adj, terms)
		inKept := map[string]bool{}
		for _, t := range kept {
			inKept[t] = true
		}
		bestName, bestScore := "", -1.0
		for t, s := range tScores {
			if s > cfg.TauP || inKept[t] {
				continue
			}
			if s > bestScore || (s == bestScore && t < bestName) {
				hasEdge := false
				for nb := range adj[t] {
					if inKept[nb] {
						hasEdge = true
						break
					}
				}
				if hasEdge {
					bestName, bestScore = t, s
				}
			}
		}
		if bestName != "" {
			kept = append(kept, bestName)
		}
	} else {
		kept = refTopK(tScores, cfg.TopK1)
	}

	keepCols := map[string]map[string]bool{}
	for _, tn := range kept {
		t := db.Table(tn)
		if t == nil {
			continue
		}
		cScores := refScoreColumns(m, nl, t)
		cols := map[string]bool{}
		if cfg.UseSteiner {
			for c, s := range cScores {
				if s > cfg.TauP {
					cols[c] = true
				}
			}
			if len(cols) < cfg.TauN {
				for _, c := range refTopK(cScores, cfg.TauN) {
					cols[c] = true
				}
			}
		} else {
			for _, c := range refTopK(cScores, cfg.TopK2) {
				cols[c] = true
			}
		}
		keepCols[strings.ToLower(tn)] = cols
	}
	pruned := refDatabasePrune(db, kept, keepCols)
	sort.Strings(kept)
	return PruneResult{DB: pruned, KeptTables: kept}
}

// refDatabasePrune is the name-matching (*schema.Database).Prune.
func refDatabasePrune(d *schema.Database, keepTables []string, keepCols map[string]map[string]bool) *schema.Database {
	keepT := make(map[string]bool, len(keepTables))
	for _, t := range keepTables {
		keepT[strings.ToLower(t)] = true
	}
	nd := &schema.Database{Name: d.Name}
	for _, t := range d.Tables {
		if !keepT[strings.ToLower(t.Name)] {
			continue
		}
		cols := keepCols[strings.ToLower(t.Name)]
		nt := &schema.Table{Name: t.Name, NLName: t.NLName, PrimaryKey: t.PrimaryKey}
		for _, c := range t.Columns {
			keep := cols == nil || cols[strings.ToLower(c.Name)] ||
				strings.EqualFold(c.Name, t.PrimaryKey)
			if !keep {
				for _, fk := range d.ForeignKeys {
					if strings.EqualFold(fk.FromTable, t.Name) && strings.EqualFold(fk.FromColumn, c.Name) && keepT[strings.ToLower(fk.ToTable)] {
						keep = true
						break
					}
				}
			}
			if keep {
				nt.Columns = append(nt.Columns, c)
			}
		}
		nd.Tables = append(nd.Tables, nt)
	}
	for _, fk := range d.ForeignKeys {
		if keepT[strings.ToLower(fk.FromTable)] && keepT[strings.ToLower(fk.ToTable)] {
			nd.ForeignKeys = append(nd.ForeignKeys, fk)
		}
	}
	return nd
}

// topKPrune is the baselines' configuration: the top-k fallback in place
// of the Steiner tree.
var topKPrune = PruneConfig{TauP: 0.5, TauN: 5, UseSteiner: false, TopK1: 3, TopK2: 5}

// checkMatchesReference requires Prune to score every table and column of
// db for nl bit-identically to the reference, and to return the
// reference's result under both configurations.
func checkMatchesReference(t *testing.T, m *Model, nl string, db *schema.Database) {
	t.Helper()
	x := db.Index()
	q := m.question(nl)
	refT := refScoreTables(m, nl, db)
	for i, s := range q.scoreTables(x) {
		name := x.Tables[i].Name
		if want := refT[name]; math.Float64bits(s) != math.Float64bits(want) {
			t.Fatalf("%q on %s: table %s scores %v, reference %v", nl, db.Name, name, s, want)
		}
		refC := refScoreColumns(m, nl, db.Tables[i])
		for j := range x.Tables[i].Columns {
			c := &x.Tables[i].Columns[j]
			if s, want := q.score(&c.Item), refC[c.Name]; math.Float64bits(s) != math.Float64bits(want) {
				t.Fatalf("%q on %s: column %s.%s scores %v, reference %v", nl, db.Name, name, c.Name, s, want)
			}
		}
	}
	for _, cfg := range []PruneConfig{paperPrune, topKPrune} {
		got, want := Prune(m, nl, db, cfg), refPrune(m, nl, db, cfg)
		if !reflect.DeepEqual(got.KeptTables, want.KeptTables) || !samePruned(got.DB, want.DB) {
			t.Fatalf("%q on %s with %+v: pruned to %v\n%s\nreference %v\n%s",
				nl, db.Name, cfg, got.KeptTables, describe(got.DB), want.KeptTables, describe(want.DB))
		}
	}
}

// samePruned compares two pruned schemas: name, tables with their names,
// keys and columns in order, and foreign keys in order.
func samePruned(a, b *schema.Database) bool {
	if a.Name != b.Name || len(a.Tables) != len(b.Tables) || !reflect.DeepEqual(a.ForeignKeys, b.ForeignKeys) {
		return false
	}
	for i, ta := range a.Tables {
		tb := b.Tables[i]
		if ta.Name != tb.Name || ta.NLName != tb.NLName || ta.PrimaryKey != tb.PrimaryKey ||
			!reflect.DeepEqual(ta.Columns, tb.Columns) || ta.Rows != nil || tb.Rows != nil {
			return false
		}
	}
	return true
}

func describe(db *schema.Database) string {
	var sb strings.Builder
	for _, t := range db.Tables {
		fmt.Fprintf(&sb, "  %s (%s) pk=%s %v\n", t.Name, t.NLName, t.PrimaryKey, t.Columns)
	}
	fmt.Fprintf(&sb, "  fks %v", db.ForeignKeys)
	return sb.String()
}

// roundTripped returns m after MarshalBinary and UnmarshalBinary, the path
// a tenant snapshot takes.
func roundTripped(t testing.TB, m *Model) *Model {
	t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return &back
}

var (
	paperOnce   sync.Once
	paperCorpus *spider.Corpus
	paperModel  *Model
)

// paper trains the model on the scale-1 corpus once per test process.
func paper() (*spider.Corpus, *Model) {
	paperOnce.Do(func() {
		paperCorpus = spider.GenerateSmall(1, 1.0)
		paperModel = train(paperCorpus)
	})
	return paperCorpus, paperModel
}

// TestPruneMatchesReferenceOnCorpus covers every dev, DK, Syn and Realistic
// question of the paper-scale corpus, with the trained model and with the
// model a tenant snapshot restores.
func TestPruneMatchesReferenceOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus")
	}
	c, m := paper()
	models := map[string]*Model{"trained": m, "round-tripped": roundTripped(t, m)}
	for _, name := range []string{"trained", "round-tripped"} {
		m := models[name]
		t.Run(name, func(t *testing.T) {
			n := 0
			for _, b := range []*spider.Benchmark{c.Dev, c.DK, c.Syn, c.Realistic} {
				for _, e := range b.Examples {
					checkMatchesReference(t, m, e.NL, e.DB)
					n++
				}
			}
			if n != spider.DevQueries+spider.DKQueries+spider.SynQueries+spider.RealisticQueries {
				t.Errorf("covered %d questions", n)
			}
		})
	}
}

// TestPruneMatchesReferenceOnEdgeQuestions covers what the corpus's
// questions do not: no content words, capitals and punctuation, repeated
// words, plural forms, non-ASCII and invalid UTF-8.
func TestPruneMatchesReferenceOnEdgeQuestions(t *testing.T) {
	c := corpus(t)
	m := train(c)
	db := c.Dev.Examples[0].DB
	for _, nl := range []string{
		"", "?", "the of a", "Singers singers SINGERS singer's", "name name name, name.",
		"How many 'stadiums' have \"capacity\"?", "ÉTUDIANTS des écoles", "bad \xff\xfe utf8 \xe2\x82",
		"ids id Id_s", "ssss sss ss s",
	} {
		checkMatchesReference(t, m, nl, db)
		checkMatchesReference(t, roundTripped(t, m), nl, db)
	}
}

// FuzzPruneMatchesReference holds Prune to the reference on arbitrary
// questions over the databases of a small corpus.
func FuzzPruneMatchesReference(f *testing.F) {
	c := spider.GenerateSmall(5, 0.08)
	m := train(c)
	dbs := map[string]*schema.Database{}
	var names []string
	for _, e := range c.Dev.Examples {
		if dbs[e.DB.Name] == nil {
			dbs[e.DB.Name] = e.DB
			names = append(names, e.DB.Name)
			f.Add(e.NL, uint8(len(names)-1))
		}
	}
	f.Add("Singers singers SINGERS singer's \xff", uint8(0))
	f.Fuzz(func(t *testing.T, nl string, db uint8) {
		checkMatchesReference(t, m, nl, dbs[names[int(db)%len(names)]])
	})
}
