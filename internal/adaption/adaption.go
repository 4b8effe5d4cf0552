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

// Outcome is what an execution-consistency vote decided.
type Outcome struct {
	SQL   string // the first sample with the winning signature, as adapted
	Votes int    // the winner's votes among the candidates run
	Run   int    // distinct candidates adapted and executed
}

// Vote applies execution-consistency (Section IV-D2): it returns the first
// candidate, in sample order, whose result signature, after adaption when
// fix is true, has the most votes; a tie goes to the lexicographically
// smallest signature. ok is false when no candidate executes.
//
// Adaption and execution are pure functions of (db, sql), and
// self-consistency sampling repeats itself (30 samples hold about four
// distinct strings), so each distinct candidate is counted once per time
// it was sampled but adapted and executed at most once. Distinct
// candidates run in first-sample order until the vote is decided: the
// leading signature has more votes than the samples not yet run plus the
// votes of any other signature. The rule is exact. No signature, seen or
// new, can then reach the leader, so the tie rule cannot apply; and every
// candidate not run was first sampled later, so the leader's SQL is
// already the first sample with its signature.
func Vote(db *schema.Database, candidates []string, fix bool) (Outcome, bool) {
	type distinct struct {
		sql     string
		samples int
	}
	var order []distinct // in first-sample order
	index := map[string]int{}
	for _, c := range candidates {
		i, seen := index[c]
		if !seen {
			i = len(order)
			index[c] = i
			order = append(order, distinct{sql: c})
		}
		order[i].samples++
	}

	f := &Fixer{DB: db}
	type tally struct {
		sql   string // the first candidate with this signature, as adapted
		sig   string
		votes int
	}
	bySig := map[string]*tally{}
	var lead *tally         // most votes, then smallest signature
	runnerUp := 0           // the most votes another signature holds
	left := len(candidates) // samples of the candidates not yet run
	run := 0
	for _, d := range order {
		if lead != nil && lead.votes > runnerUp+left {
			break
		}
		run++
		left -= d.samples
		var res *sqlexec.Result
		sql := d.sql
		if fix {
			sql, res = f.Adapt(d.sql)
		} else {
			res, _ = sqlexec.ExecSQL(db, d.sql)
		}
		if res == nil {
			continue
		}
		sig := Signature(res)
		t := bySig[sig]
		if t == nil {
			t = &tally{sql: sql, sig: sig}
			bySig[sig] = t
		}
		t.votes += d.samples
		switch {
		case t == lead:
		case lead == nil || t.votes > lead.votes || t.votes == lead.votes && t.sig < lead.sig:
			if lead != nil {
				runnerUp = lead.votes
			}
			lead = t
		default:
			runnerUp = max(runnerUp, t.votes)
		}
	}
	if lead == nil {
		return Outcome{Run: run}, false
	}
	return Outcome{SQL: lead.sql, Votes: lead.votes, Run: run}, true
}

// Signature canonically encodes an execution result for consensus voting:
// rows sorted unless the query ordered them (sqlexec's one canonical
// result encoding).
func Signature(res *sqlexec.Result) string {
	return strings.Join(res.Canonical(), "\x1e")
}
