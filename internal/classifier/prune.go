package classifier

import (
	"sort"

	"repro/internal/schema"
	"repro/internal/steiner"
)

// PruneConfig controls the schema-pruning strategy of Section IV-A.
type PruneConfig struct {
	// TauP is the relevance-probability threshold for keeping items
	// (paper default 0.5).
	TauP float64
	// TauN is the minimum number of columns kept per table, preserving
	// table semantics (paper default 5).
	TauN int
	// UseSteiner selects the paper's Steiner-tree pruning. When false, the
	// RESDSQL-style top-k1 tables / top-k2 columns fallback is used (the
	// "-Steiner Tree" ablation of Table 6).
	UseSteiner bool
	// TopK1 and TopK2 parameterize the fallback strategy.
	TopK1, TopK2 int
}

// PruneResult carries the pruned database plus bookkeeping for evaluation.
type PruneResult struct {
	DB         *schema.Database
	KeptTables []string
}

// Prune applies the schema-pruning module: classifier scores → threshold →
// Steiner-tree connectivity repair → redundant boundary → per-table column
// selection with the τn floor. It reads the database through its Index and
// resolves the question against the model once, so it scores the tables,
// then the kept tables' columns, into slices. Equal scores are broken by
// lower-cased name, so nothing depends on iteration order (prompts, and
// therefore token accounting, are compared byte for byte across runs).
func Prune(m *Model, nl string, db *schema.Database, cfg PruneConfig) PruneResult {
	x := db.Index()
	q := m.question(nl)
	tScores := q.scoreTables(x)
	tableName := func(i int) string { return x.Tables[i].Name }

	in := make([]bool, len(x.Tables)) // the kept tables
	var names []string                // their lower-cased names
	if cfg.UseSteiner {
		var terms []string
		for i, s := range tScores {
			if s > cfg.TauP {
				terms = append(terms, x.Tables[i].Name)
			}
		}
		if len(terms) == 0 && len(tScores) > 0 {
			terms = append(terms, x.Tables[argmax(tScores, tableName)].Name)
		}
		names = steiner.Tree(x.Adjacency, terms)
		for _, n := range names {
			if i, ok := x.Position(n); ok {
				in[i] = true
			}
		}
		// Redundant boundary (Section IV-A): the highest-probability table
		// below τp joins the tree if it has an edge into it.
		best := -1
		for i, s := range tScores {
			if s > cfg.TauP || in[i] {
				continue
			}
			if best < 0 || before(s, tScores[best], tableName(i), tableName(best)) {
				for nb := range x.Adjacency[tableName(i)] {
					if j, ok := x.Position(nb); ok && in[j] {
						best = i
						break
					}
				}
			}
		}
		if best >= 0 {
			in[best] = true
			names = append(names, tableName(best))
		}
	} else {
		markTopK(tScores, tableName, cfg.TopK1, in)
		for i, k := range in {
			if k {
				names = append(names, tableName(i))
			}
		}
	}

	// keep[i] is the column mask of kept table i; the masks share one array.
	nCols, maxCols := 0, 0
	for i, k := range in {
		if k {
			nCols += len(x.Tables[i].Columns)
			maxCols = max(maxCols, len(x.Tables[i].Columns))
		}
	}
	keep := make([][]bool, len(x.Tables))
	masks := make([]bool, nCols)
	cScores := make([]float64, maxCols)
	for i, k := range in {
		if !k {
			continue
		}
		cols := x.Tables[i].Columns
		mask, scores := masks[:len(cols):len(cols)], cScores[:len(cols)]
		masks = masks[len(cols):]
		for j := range cols {
			scores[j] = q.score(&cols[j].Item)
		}
		colName := func(j int) string { return cols[j].Name }
		if cfg.UseSteiner {
			n := 0
			for j, s := range scores {
				if s > cfg.TauP {
					mask[j] = true
					n++
				}
			}
			// τn floor: keep the top-scoring columns until the table retains
			// at least TauN columns (or all of them).
			if n < cfg.TauN {
				markTopK(scores, colName, cfg.TauN, mask)
			}
		} else {
			markTopK(scores, colName, cfg.TopK2, mask)
		}
		keep[i] = mask
	}
	sort.Strings(names)
	return PruneResult{DB: db.Prune(keep), KeptTables: names}
}

// scoreTables scores every table of the index, in declaration order.
func (q *question) scoreTables(x *schema.Index) []float64 {
	scores := make([]float64, len(x.Tables))
	for i := range x.Tables {
		scores[i] = q.score(&x.Tables[i].Item)
	}
	return scores
}

// before reports whether an item scored a named an precedes one scored b
// named bn: the higher score first, the lexicographically smaller name on a
// tie.
func before(a, b float64, an, bn string) bool {
	return a > b || a == b && an < bn
}

// argmax returns the first item in before's order.
func argmax(scores []float64, name func(int) string) int {
	best := 0
	for i := 1; i < len(scores); i++ {
		if before(scores[i], scores[best], name(i), name(best)) {
			best = i
		}
	}
	return best
}

// markTopK sets mark for the k first items in before's order.
func markTopK(scores []float64, name func(int) string, k int, mark []bool) {
	for j := range scores {
		ahead := 0
		for i := range scores {
			if before(scores[i], scores[j], name(i), name(j)) {
				ahead++
			}
		}
		if ahead < k {
			mark[j] = true
		}
	}
}
