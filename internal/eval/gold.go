package eval

import (
	"repro/internal/schema"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// Gold is a task's gold query graded once: its exact-set signature and its
// result on the task's database are computed when it is built, so grading
// a prediction against it parses and executes the prediction alone.
// Grade(pred) equals (ExactSetMatchSQL(pred, sql), ExecutionMatch(db, pred,
// sql)) for every prediction. A Gold never changes after NewGold, so it is
// safe for concurrent use.
type Gold struct {
	db  *schema.Database
	sql string
	// parsed reports whether the gold parses; sig is then its signature.
	parsed bool
	sig    string
	// res is the gold's result, nil when it fails to parse or to execute,
	// and canon its canonical rows under its own order flag.
	res   *sqlexec.Result
	canon []string
}

// NewGold parses the gold SQL once and executes that tree once on db.
func NewGold(db *schema.Database, sql string) *Gold {
	g := &Gold{db: db, sql: sql}
	sel, err := sqlir.Parse(sql)
	if err != nil {
		return g
	}
	g.parsed, g.sig = true, componentSignature(sel)
	if res, err := sqlexec.Exec(db, sel); err == nil {
		g.res, g.canon = res, res.Canonical()
	}
	return g
}

// Grade reports the prediction's exact-set match and execution match
// against the gold.
func (g *Gold) Grade(pred string) (em, ex bool) {
	if pred == g.sql {
		// Parsing and execution are pure functions of the database and the
		// text, so the prediction parses and executes exactly as the gold
		// did: it matches wherever the gold parses (EM) and executes (EX).
		return g.parsed, g.res != nil
	}
	sel, err := sqlir.Parse(pred)
	if err != nil {
		return false, false
	}
	em = g.parsed && componentSignature(sel) == g.sig
	if g.res == nil {
		return em, false
	}
	res, err := sqlexec.Exec(g.db, sel)
	return em, err == nil && equalsCanonical(res, g.res, g.canon)
}
