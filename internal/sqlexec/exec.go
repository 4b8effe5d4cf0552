// Package sqlexec is an in-memory relational execution engine for the SQL
// subset defined in internal/sqlir. It stands in for SQLite in the paper's
// pipeline: the EX/TS metrics, the execution-consistency vote and the
// database-adaption module all run queries through it. The engine enforces a
// SQLite-flavoured dialect (no CONCAT, single-column aggregates) so that the
// hallucination classes of Table 2 surface as real execution errors.
//
// Execution is split into three layers (see DESIGN.md):
//
//   - plan.go lowers a sqlir.Select into a logical plan tree
//     (scan → join → filter → group → project → sort/limit → set-op),
//   - optimize.go applies rule-based rewrites (predicate pushdown into
//     scans, equi-join strategy selection, projection pruning, constant
//     folding),
//   - columnar.go executes the physical plan batch at a time (hash joins
//     for equi-joins, hash grouping, vector kernels), falling back to the
//     row closures eval.go compiles (hash semi-joins for uncorrelated IN
//     subqueries among them); operators.go drives execution.
//
// prepare.go adds a prepared-statement layer on top: Prepare compiles a
// query once into a reusable, concurrency-safe *Stmt, and PlanCache keys
// compiled statements by (database schema, SQL text) so the repeat-execution
// paths — the EX/TS metrics, the /execute endpoint — skip parsing and
// planning entirely on a hit.
package sqlexec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlir"
)

// Result is the output relation of a query.
type Result struct {
	Cols    []string
	Rows    [][]schema.Value
	Ordered bool // true when the query had ORDER BY (row order significant)
}

// CanonicalRows renders the rows in canonical comparison form: each row is
// lower-cased and \x1f-joined, and the row list is sorted unless ordered is
// true. Every result comparison in the repo (EX/TS metrics, the consistency
// vote's signature, the differential oracle) goes through this one encoding.
func (r *Result) CanonicalRows(ordered bool) []string {
	rows := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = rowKey(row)
	}
	if !ordered {
		sort.Strings(rows)
	}
	return rows
}

// Canonical renders the rows in canonical comparison form, order-sensitive
// iff the result is Ordered.
func (r *Result) Canonical() []string { return r.CanonicalRows(r.Ordered) }

// Dialect errors surfaced to the adaption module. Each corresponds to an
// error class in Table 2 of the paper.
var (
	ErrUnknownTable    = errors.New("no such table")
	ErrUnknownColumn   = errors.New("no such column")
	ErrAmbiguousColumn = errors.New("ambiguous column name")
	ErrUnknownFunction = errors.New("no such function")
	ErrAggArity        = errors.New("wrong number of arguments to aggregate")
)

// ErrSchemaMismatch is returned by Stmt.Exec when the target database's
// schema no longer matches the schema the statement was prepared against.
var ErrSchemaMismatch = errors.New("sqlexec: prepared statement schema mismatch")

// Exec plans and executes the query against the database with default
// options. For repeated execution of the same query, Prepare (or a
// PlanCache) amortizes the planning cost.
func Exec(db *schema.Database, sel *sqlir.Select) (*Result, error) {
	return ExecOptions(db, sel, PlanOptions{})
}

// ExecOptions plans and executes with explicit physical-plan options; tests
// use it to force both join paths through the differential oracle.
func ExecOptions(db *schema.Database, sel *sqlir.Select, opts PlanOptions) (*Result, error) {
	p, err := planTop(db, sel, opts)
	if err != nil {
		return nil, err
	}
	return p.run(db)
}

// ExecSQL parses and executes a SQL string.
func ExecSQL(db *schema.Database, sql string) (*Result, error) {
	sel, err := sqlir.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Exec(db, sel)
}

const maxDepth = 16

// binding names one column position of the working relation.
type binding struct {
	qualifier string // table alias or table name, lower-cased
	table     string // underlying table name, lower-cased
	column    string // column name, lower-cased
	typ       schema.ColType
}

// resolveCol finds the position of a column reference within bindings.
func resolveCol(c *sqlir.ColumnRef, bindings []binding) (int, error) {
	col := strings.ToLower(c.Column)
	qual := strings.ToLower(c.Table)
	found := -1
	for i, b := range bindings {
		if b.column != col {
			continue
		}
		if qual != "" && b.qualifier != qual && b.table != qual {
			continue
		}
		if found >= 0 {
			if qual == "" {
				return 0, fmt.Errorf("%w: %s", ErrAmbiguousColumn, c.Column)
			}
			// same qualifier twice cannot happen; prefer first
			continue
		}
		found = i
	}
	if found < 0 {
		name := c.Column
		if c.Table != "" {
			name = c.Table + "." + c.Column
		}
		return 0, fmt.Errorf("%w: %s", ErrUnknownColumn, name)
	}
	return found, nil
}

func sortRows(rows [][]schema.Value) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
}

func isStar(e sqlir.Expr) bool {
	_, ok := e.(*sqlir.Star)
	return ok
}

func itemName(it sqlir.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch v := it.Expr.(type) {
	case *sqlir.ColumnRef:
		return strings.ToLower(v.Column)
	case *sqlir.Agg:
		return strings.ToLower(v.Fn)
	default:
		return "expr"
	}
}
