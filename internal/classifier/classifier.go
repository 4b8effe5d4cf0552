// Package classifier implements PURPLE's table-column relevance model
// (Section IV-A1), the stand-in for the RESDSQL cross-encoder. It is trained
// on the benchmark's training split: labels are the tables and columns used
// by the gold SQL, and the model combines direct lexical overlap between the
// NL query and schema-item names with word↔name-token association statistics
// learned from the training data (the focal-loss cross-encoder's calibrated
// probabilities are approximated by a bounded additive score).
package classifier

import (
	"slices"
	"strings"

	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// Model scores schema items for relevance to an NL query.
type Model struct {
	// assoc[word][nameToken] counts training co-occurrences of an NL word
	// with a name token of a used schema item.
	assoc map[string]map[string]float64
	// wordTotal[word] counts training occurrences of the word.
	wordTotal map[string]float64
}

// Used is what a query reads of its database: its tables, lower-cased, and
// its columns as lower-cased "table.column", each sorted and without
// repeats. These are the training labels (presence or absence per item, as
// in RESDSQL), and a demonstration's schema is pruned to them. Slices, not
// sets: a pipeline build holds every training example's Used at once.
type Used struct {
	Tables, Columns []string
}

// UsedByExample computes each example's Used items once, for Train and for
// rendering the examples as demonstrations alike.
func UsedByExample(examples []*spider.Example) []Used {
	out := make([]Used, len(examples))
	for i, e := range examples {
		out[i] = UsedItems(e.Gold, e.DB)
	}
	return out
}

// Train fits the model on training examples; used[i] is UsedItems of
// examples[i] (UsedByExample).
func Train(examples []*spider.Example, used []Used) *Model {
	m := &Model{assoc: map[string]map[string]float64{}, wordTotal: map[string]float64{}}
	for i, e := range examples {
		words := contentWords(e.NL)
		var nameTokens []string
		for _, t := range used[i].Tables {
			nameTokens = append(nameTokens, schema.NameTokens(t)...)
		}
		for _, tc := range used[i].Columns {
			parts := strings.SplitN(tc, ".", 2)
			nameTokens = append(nameTokens, schema.NameTokens(parts[len(parts)-1])...)
		}
		for _, w := range words {
			m.wordTotal[w]++
			row := m.assoc[w]
			if row == nil {
				row = map[string]float64{}
				m.assoc[w] = row
			}
			for _, nt := range nameTokens {
				row[nt]++
			}
		}
	}
	return m
}

// UsedItems extracts the tables and columns referenced by a query,
// resolving aliases and unqualified columns against the database.
func UsedItems(sel *sqlir.Select, db *schema.Database) Used {
	tables := map[string]bool{}
	columns := map[string]bool{}
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		alias := map[string]string{}
		var fromTables []string
		reg := func(tr sqlir.TableRef) {
			tn := strings.ToLower(tr.Table)
			tables[tn] = true
			fromTables = append(fromTables, tn)
			alias[strings.ToLower(tr.Name())] = tn
		}
		reg(s.From.Base)
		for _, j := range s.From.Joins {
			reg(j.Table)
		}
		resolve := func(c *sqlir.ColumnRef) {
			if c == nil || c.Column == "*" {
				return
			}
			col := strings.ToLower(c.Column)
			if c.Table != "" {
				if tn, ok := alias[strings.ToLower(c.Table)]; ok {
					columns[tn+"."+col] = true
					return
				}
				columns[strings.ToLower(c.Table)+"."+col] = true
				return
			}
			for _, tn := range fromTables {
				if t := db.Table(tn); t != nil && t.HasColumn(col) {
					columns[tn+"."+col] = true
					return
				}
			}
		}
		for _, j := range s.From.Joins {
			resolve(j.Left)
			resolve(j.Right)
		}
		sqlir.WalkExprs(s, func(e sqlir.Expr) {
			if c, ok := e.(*sqlir.ColumnRef); ok {
				resolve(c)
			}
		})
	})
	items := make([]string, 0, len(tables)+len(columns))
	for t := range tables {
		items = append(items, t)
	}
	for c := range columns {
		items = append(items, c)
	}
	u := Used{Tables: items[:len(tables):len(tables)], Columns: items[len(tables):]}
	slices.Sort(u.Tables)
	slices.Sort(u.Columns)
	return u
}

// question is a question resolved against the model once: its content
// words, and the association row of each one the model saw at least three
// times in training, in word order with repeats.
type question struct {
	words []string
	rows  []assocRow
}

type assocRow struct {
	total float64
	row   map[string]float64
}

func (m *Model) question(nl string) question {
	q := question{words: contentWords(nl)}
	q.rows = make([]assocRow, 0, len(q.words))
	for _, w := range q.words {
		total := m.wordTotal[w]
		if total < 3 {
			continue
		}
		q.rows = append(q.rows, assocRow{total, m.assoc[w]})
	}
	return q
}

// score is an item's bounded [0,1] relevance: the maximum over its name
// variants of direct lexical recall and of the damped learned association,
// the mean over the question's rows of the strongest normalized
// co-occurrence with one of the variant's tokens.
func (q *question) score(it *schema.Item) float64 {
	best := 0.0
	for _, tokens := range it.Variants {
		hit := 0
		for _, tok := range tokens {
			if slices.Contains(q.words, tok) {
				hit++
			}
		}
		if lex := float64(hit) / float64(len(tokens)); lex > best {
			best = lex
		}
		if len(q.rows) == 0 {
			continue
		}
		var learned float64
		for _, r := range q.rows {
			var s float64
			for _, tok := range tokens {
				if v := r.row[tok]; v/r.total > s {
					s = v / r.total
				}
			}
			learned += s
		}
		learned = learned / float64(len(q.rows))
		// Associations are diffuse; damp them below direct matches.
		if l := learned * 0.85; l > best {
			best = l
		}
	}
	if best > 1 {
		best = 1
	}
	return best
}

var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "all": true, "are": true,
	"is": true, "what": true, "which": true, "how": true, "many": true,
	"list": true, "find": true, "whose": true, "with": true, "that": true,
	"and": true, "or": true, "to": true, "do": true, "not": true, "have": true,
	"any": true, "for": true, "each": true, "there": true, "every": true,
	"in": true, "than": true, "at": true, "by": true, "s": true,
}

// contentWords tokenizes NL into lower-cased content words, singularizing
// trailing plural s so "singers" matches "singer" (both are kept). Words
// are substrings of nl where lower-casing leaves them unchanged.
func contentWords(nl string) []string {
	out := make([]string, 0, 16)
	add := func(w string) {
		if w == "" {
			return
		}
		w = strings.ToLower(w)
		if stopwords[w] {
			return
		}
		out = append(out, w)
		if strings.HasSuffix(w, "s") && len(w) > 3 {
			out = append(out, strings.TrimSuffix(w, "s"))
		}
	}
	start := 0
	for i := 0; i < len(nl); i++ {
		switch nl[i] {
		case ' ', ',', '?', '.', '\'', '"':
			add(nl[start:i])
			start = i + 1
		}
	}
	add(nl[start:])
	return out
}
