package classifier

import (
	"sort"
	"strings"

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

// DefaultPruneConfig is the paper's configuration.
func DefaultPruneConfig() PruneConfig {
	return PruneConfig{TauP: 0.5, TauN: 5, UseSteiner: true, TopK1: 4, TopK2: 5}
}

// PruneResult carries the pruned database plus bookkeeping for evaluation.
type PruneResult struct {
	DB         *schema.Database
	KeptTables []string
}

// Prune applies the schema-pruning module: classifier scores → threshold →
// Steiner-tree connectivity repair → redundant boundary → per-table column
// selection with the τn floor.
func Prune(m *Model, nl string, db *schema.Database, cfg PruneConfig) PruneResult {
	tScores := m.ScoreTables(nl, db)

	var kept []string
	if cfg.UseSteiner {
		var terms []string
		for t, s := range tScores {
			if s > cfg.TauP {
				terms = append(terms, t)
			}
		}
		if len(terms) == 0 {
			terms = TopK(tScores, 1)
		}
		adj := db.Adjacency()
		kept = steiner.Tree(adj, terms)
		// Redundant boundary (Section IV-A): the highest-probability table
		// below τp joins the tree if it has an edge into it.
		inKept := map[string]bool{}
		for _, t := range kept {
			inKept[t] = true
		}
		// Tie-break equal scores lexicographically: map iteration order must
		// not leak into the pruned schema (prompts, and therefore token
		// accounting, are compared byte-for-byte across runs).
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
		kept = TopK(tScores, cfg.TopK1)
	}

	keepCols := map[string]map[string]bool{}
	for _, tn := range kept {
		t := db.Table(tn)
		if t == nil {
			continue
		}
		cScores := m.ScoreColumns(nl, t)
		cols := map[string]bool{}
		if cfg.UseSteiner {
			for c, s := range cScores {
				if s > cfg.TauP {
					cols[c] = true
				}
			}
			// τn floor: keep the top-scoring columns until the table retains
			// at least TauN columns (or all of them).
			if len(cols) < cfg.TauN {
				for _, c := range TopK(cScores, cfg.TauN) {
					cols[c] = true
				}
			}
		} else {
			for _, c := range TopK(cScores, cfg.TopK2) {
				cols[c] = true
			}
		}
		keepCols[strings.ToLower(tn)] = cols
	}
	pruned := db.Prune(kept, keepCols)
	sort.Strings(kept)
	return PruneResult{DB: pruned, KeptTables: kept}
}
