// Package adaption implements PURPLE's database-adaption module
// (Section IV-D): heuristic repair of the six LLM hallucination classes of
// Table 2, applied only to SQL that fails execution (so valid SQL is never
// perturbed), plus the execution-consistency vote that picks the final
// translation from n sampled candidates.
package adaption

import (
	"errors"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// MaxAttempts bounds repair iterations per query (the paper repairs up to
// five times).
const MaxAttempts = 5

// Fixer repairs SQL against one database.
type Fixer struct {
	DB *schema.Database
}

// Adapt repairs a SQL string until it executes or attempts are exhausted.
// It returns the (possibly rewritten) SQL and the result of its successful
// execution, or a nil result when it still does not execute. Executable
// input is returned unchanged — the no-side-effect guarantee.
func (f *Fixer) Adapt(sql string) (string, *sqlexec.Result) {
	sel, err := sqlir.Parse(sql)
	if err != nil {
		return sql, nil
	}
	for attempt := 0; attempt < MaxAttempts; attempt++ {
		res, err := sqlexec.Exec(f.DB, sel)
		if err == nil {
			return sqlir.String(sel), res
		}
		if !f.fix(sel, err) {
			return sqlir.String(sel), nil
		}
	}
	res, _ := sqlexec.Exec(f.DB, sel) // a nil result reports the failure
	return sqlir.String(sel), res
}

// fix applies one repair for the classified error; it reports whether any
// change was made (no change means the error is not repairable).
func (f *Fixer) fix(sel *sqlir.Select, execErr error) bool {
	switch {
	case errors.Is(execErr, sqlexec.ErrUnknownFunction):
		return f.fixFunctionHallucination(sel)
	case errors.Is(execErr, sqlexec.ErrAggArity):
		return f.fixAggregationHallucination(sel)
	case errors.Is(execErr, sqlexec.ErrAmbiguousColumn):
		return f.fixAmbiguity(sel, execErr)
	case errors.Is(execErr, sqlexec.ErrUnknownColumn):
		return f.fixUnknownColumn(sel, execErr)
	case errors.Is(execErr, sqlexec.ErrUnknownTable):
		return f.fixUnknownTable(sel)
	}
	return false
}

// fixFunctionHallucination drops unsupported function calls, keeping the
// first column argument (the paper's immediate solution for CONCAT et al.).
func (f *Fixer) fixFunctionHallucination(sel *sqlir.Select) bool {
	changed := false
	var fixSel func(*sqlir.Select)
	fixSel = func(s *sqlir.Select) {
		for i, it := range s.Items {
			if a, ok := it.Expr.(*sqlir.Agg); ok && !sqlir.AggFuncs[a.Fn] {
				s.Items[i].Expr = firstColumnArg(a)
				changed = true
			}
		}
		sqlir.WalkSelects(s, func(sub *sqlir.Select) {
			if sub == s {
				return
			}
			for i, it := range sub.Items {
				if a, ok := it.Expr.(*sqlir.Agg); ok && !sqlir.AggFuncs[a.Fn] {
					sub.Items[i].Expr = firstColumnArg(a)
					changed = true
				}
			}
		})
	}
	fixSel(sel)
	return changed
}

func firstColumnArg(a *sqlir.Agg) sqlir.Expr {
	for _, arg := range a.Args {
		if c, ok := arg.(*sqlir.ColumnRef); ok {
			return c
		}
	}
	if len(a.Args) > 0 {
		return a.Args[0]
	}
	return &sqlir.Star{}
}

// fixAggregationHallucination truncates multi-argument aggregates to their
// first argument, preserving DISTINCT (the paper splits the COUNT; keeping
// the first distinct column preserves the dominant semantics).
func (f *Fixer) fixAggregationHallucination(sel *sqlir.Select) bool {
	changed := false
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		sqlir.WalkExprs(s, func(e sqlir.Expr) {
			if a, ok := e.(*sqlir.Agg); ok && sqlir.AggFuncs[a.Fn] && len(a.Args) > 1 {
				a.Args = a.Args[:1]
				changed = true
			}
		})
	})
	return changed
}

// fixAmbiguity qualifies the ambiguous column with the first FROM table that
// has it (the paper assigns it to one of its potential tables).
func (f *Fixer) fixAmbiguity(sel *sqlir.Select, execErr error) bool {
	name := trailingName(execErr.Error())
	changed := false
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		if changed {
			return
		}
		froms := fromTables(s)
		for _, tn := range froms {
			t := f.DB.Table(tn.table)
			if t == nil || !t.HasColumn(name) {
				continue
			}
			sqlir.WalkExprs(s, func(e sqlir.Expr) {
				if c, ok := e.(*sqlir.ColumnRef); ok && c.Table == "" && strings.EqualFold(c.Column, name) {
					c.Table = tn.ref
					changed = true
				}
			})
			if changed {
				return
			}
		}
	})
	return changed
}

type fromEntry struct {
	ref   string // name used in the query (alias or table)
	table string // underlying table
}

func fromTables(s *sqlir.Select) []fromEntry {
	out := []fromEntry{{s.From.Base.Name(), s.From.Base.Table}}
	for _, j := range s.From.Joins {
		out = append(out, fromEntry{j.Table.Name(), j.Table.Table})
	}
	return out
}

// fixUnknownColumn handles three of the paper's classes in order:
// Table-Column-Mismatch (column exists under another FROM table),
// Missing-Table (the qualifier names a real table absent from FROM), and
// Schema-Hallucination (replace with the minimum-edit-distance column).
func (f *Fixer) fixUnknownColumn(sel *sqlir.Select, execErr error) bool {
	full := trailingName(execErr.Error())
	qual, colName := "", full
	if i := strings.IndexByte(full, '.'); i >= 0 {
		qual, colName = full[:i], full[i+1:]
	}
	changed := false
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		if changed {
			return
		}
		froms := fromTables(s)
		refMatches := func(c *sqlir.ColumnRef) bool {
			if !strings.EqualFold(c.Column, colName) {
				return false
			}
			if qual == "" {
				return c.Table == ""
			}
			return strings.EqualFold(c.Table, qual)
		}
		// (1) Table-Column-Mismatch: another FROM table has this column.
		for _, fe := range froms {
			t := f.DB.Table(fe.table)
			if t != nil && t.HasColumn(colName) {
				forEachRef(s, func(c *sqlir.ColumnRef) {
					if refMatches(c) {
						c.Table = fe.ref
						changed = true
					}
				})
				if changed {
					return
				}
			}
		}
		// (2) Missing-Table: qualifier names a real table not in FROM; join
		// it in through a foreign key with any FROM table.
		if qual != "" {
			if missing := f.DB.Table(qual); missing != nil && missing.HasColumn(colName) {
				for _, fe := range froms {
					if fk, ok := f.DB.FKBetween(fe.table, missing.Name); ok {
						var left, right *sqlir.ColumnRef
						if strings.EqualFold(fk.FromTable, fe.table) {
							left = &sqlir.ColumnRef{Table: fe.ref, Column: fk.FromColumn}
							right = &sqlir.ColumnRef{Table: missing.Name, Column: fk.ToColumn}
						} else {
							left = &sqlir.ColumnRef{Table: fe.ref, Column: fk.ToColumn}
							right = &sqlir.ColumnRef{Table: missing.Name, Column: fk.FromColumn}
						}
						s.From.Joins = append(s.From.Joins, sqlir.Join{
							Table: sqlir.TableRef{Table: missing.Name},
							Left:  left, Right: right,
						})
						changed = true
						return
					}
				}
			}
		}
		// (3) Schema-Hallucination: minimum string edit distance over the
		// columns of the FROM tables.
		best, bestDist := "", 1<<30
		bestRef := ""
		for _, fe := range froms {
			t := f.DB.Table(fe.table)
			if t == nil {
				continue
			}
			for _, c := range t.Columns {
				if d := editDistance(strings.ToLower(colName), strings.ToLower(c.Name)); d < bestDist {
					best, bestDist, bestRef = c.Name, d, fe.ref
				}
			}
		}
		if best != "" {
			forEachRef(s, func(c *sqlir.ColumnRef) {
				if refMatches(c) {
					c.Column = best
					if qual != "" {
						c.Table = bestRef
					}
					changed = true
				}
			})
		}
	})
	return changed
}

// fixUnknownTable replaces unknown table names by minimum edit distance.
func (f *Fixer) fixUnknownTable(sel *sqlir.Select) bool {
	changed := false
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		fixRef := func(tr *sqlir.TableRef) {
			if f.DB.Table(tr.Table) != nil {
				return
			}
			best, bestDist := "", 1<<30
			for _, t := range f.DB.Tables {
				if d := editDistance(strings.ToLower(tr.Table), strings.ToLower(t.Name)); d < bestDist {
					best, bestDist = t.Name, d
				}
			}
			if best != "" {
				tr.Table = best
				changed = true
			}
		}
		fixRef(&s.From.Base)
		for i := range s.From.Joins {
			fixRef(&s.From.Joins[i].Table)
		}
	})
	return changed
}

func forEachRef(s *sqlir.Select, fn func(*sqlir.ColumnRef)) {
	sqlir.WalkExprs(s, func(e sqlir.Expr) {
		if c, ok := e.(*sqlir.ColumnRef); ok {
			fn(c)
		}
	})
	for _, j := range s.From.Joins {
		fn(j.Left)
		fn(j.Right)
	}
}

// trailingName extracts the item name from "no such column: X" style errors.
func trailingName(msg string) string {
	if i := strings.LastIndex(msg, ": "); i >= 0 {
		return msg[i+2:]
	}
	return msg
}

// editDistance is the Levenshtein distance.
func editDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func minInt(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Vote applies execution-consistency (Section IV-D2): each candidate is
// adapted (when fix is true) and executed, and the first candidate, in
// sample order, whose result signature has the most votes is returned; a
// tie goes to the lexicographically smallest signature. ok is false when no
// candidate executes.
//
// Adaption and execution are pure functions of (db, sql), and
// self-consistency sampling repeats itself (30 samples hold about four
// distinct strings), so each distinct candidate is adapted and executed
// once and its signature counted once per time it was sampled.
func Vote(db *schema.Database, candidates []string, fix bool) (string, bool) {
	f := &Fixer{DB: db}
	type tally struct {
		sql   string // the first candidate with this signature, as adapted
		sig   string
		votes int
	}
	bySig := map[string]*tally{}
	byCandidate := map[string]*tally{} // nil: the candidate does not execute
	for _, c := range candidates {
		t, seen := byCandidate[c]
		if !seen {
			var res *sqlexec.Result
			sql := c
			if fix {
				sql, res = f.Adapt(c)
			} else {
				res, _ = sqlexec.ExecSQL(db, c)
			}
			if res != nil {
				sig := Signature(res)
				if t = bySig[sig]; t == nil {
					t = &tally{sql: sql, sig: sig}
					bySig[sig] = t
				}
			}
			byCandidate[c] = t
		}
		if t != nil {
			t.votes++
		}
	}
	// Most votes, then smallest signature: a total order, so the map's
	// iteration order cannot change the winner.
	var best *tally
	for _, t := range bySig {
		if best == nil || t.votes > best.votes || t.votes == best.votes && t.sig < best.sig {
			best = t
		}
	}
	if best == nil {
		return "", false
	}
	return best.sql, true
}

// Signature canonically encodes an execution result for consensus voting:
// rows sorted unless the query ordered them (sqlexec's one canonical
// result encoding).
func Signature(res *sqlexec.Result) string {
	return strings.Join(res.Canonical(), "\x1e")
}
