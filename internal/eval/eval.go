// Package eval implements the paper's three evaluation metrics
// (Section V-A2): Exact-Set Match (EM) — clause-level component-set
// comparison with values masked, per Spider's official script; Execution
// Match (EX) — result equality on the benchmark database; and Test-Suite
// accuracy (TS) — result equality across a distilled suite of database
// instances that distinguishes near-miss queries.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// ExactSetMatchSQL parses both queries and compares their component
// signatures. Unparseable predictions never match.
func ExactSetMatchSQL(pred, gold string) bool {
	p, err := sqlir.Parse(pred)
	if err != nil {
		return false
	}
	g, err := sqlir.Parse(gold)
	if err != nil {
		return false
	}
	return ExactSetMatch(p, g)
}

// ExactSetMatch compares two queries at the SQL-component level: per-clause
// sets with aliases resolved to table names and literal values masked.
func ExactSetMatch(pred, gold *sqlir.Select) bool {
	return componentSignature(pred) == componentSignature(gold)
}

// componentSignature renders the clause-component sets canonically.
func componentSignature(sel *sqlir.Select) string {
	var sb strings.Builder
	writeSignature(&sb, sel)
	return sb.String()
}

func writeSignature(sb *strings.Builder, sel *sqlir.Select) {
	alias := aliasMap(sel)

	var items []string
	for _, it := range sel.Items {
		items = append(items, exprSig(it.Expr, alias))
	}
	sort.Strings(items)
	fmt.Fprintf(sb, "select[distinct=%v]{%s}", sel.Distinct, strings.Join(items, ","))

	var tables []string
	tables = append(tables, strings.ToLower(sel.From.Base.Table))
	var joins []string
	for _, j := range sel.From.Joins {
		tables = append(tables, strings.ToLower(j.Table.Table))
		a, b := exprSig(j.Left, alias), exprSig(j.Right, alias)
		if a > b {
			a, b = b, a
		}
		joins = append(joins, a+"="+b)
	}
	sort.Strings(tables)
	sort.Strings(joins)
	fmt.Fprintf(sb, "from{%s}on{%s}", strings.Join(tables, ","), strings.Join(joins, ","))

	fmt.Fprintf(sb, "where{%s}", condSig(sel.Where, alias))

	var groups []string
	for _, g := range sel.GroupBy {
		groups = append(groups, exprSig(g, alias))
	}
	sort.Strings(groups)
	fmt.Fprintf(sb, "group{%s}having{%s}", strings.Join(groups, ","), condSig(sel.Having, alias))

	var orders []string
	for _, o := range sel.OrderBy {
		dir := "asc"
		if o.Desc {
			dir = "desc"
		}
		orders = append(orders, exprSig(o.Expr, alias)+" "+dir)
	}
	fmt.Fprintf(sb, "order{%s}limit=%v", strings.Join(orders, ","), sel.HasLimit)

	if sel.Compound != nil {
		fmt.Fprintf(sb, "%s(", strings.ToLower(sel.Compound.Op))
		writeSignature(sb, sel.Compound.Right)
		sb.WriteString(")")
	}
}

// condSig flattens a boolean tree into a sorted set of predicate signatures
// plus the multiset of logical connectives (Spider compares condition sets
// without values).
func condSig(e sqlir.Expr, alias map[string]string) string {
	if e == nil {
		return ""
	}
	var preds []string
	ors := 0
	var walk func(sqlir.Expr)
	walk = func(x sqlir.Expr) {
		switch v := x.(type) {
		case *sqlir.Binary:
			switch v.Op {
			case "AND":
				walk(v.L)
				walk(v.R)
			case "OR":
				ors++
				walk(v.L)
				walk(v.R)
			default:
				preds = append(preds, predSig(v, alias))
			}
		case *sqlir.Not:
			preds = append(preds, "not("+condSig(v.E, alias)+")")
		default:
			preds = append(preds, predSig(x, alias))
		}
	}
	walk(e)
	sort.Strings(preds)
	return fmt.Sprintf("%s|or=%d", strings.Join(preds, ";"), ors)
}

// predSig renders one predicate with values masked.
func predSig(e sqlir.Expr, alias map[string]string) string {
	switch v := e.(type) {
	case *sqlir.Binary:
		return exprSig(v.L, alias) + " " + v.Op + " " + exprSig(v.R, alias)
	case *sqlir.Between:
		neg := ""
		if v.Negate {
			neg = "not "
		}
		return exprSig(v.E, alias) + " " + neg + "between"
	case *sqlir.Like:
		neg := ""
		if v.Negate {
			neg = "not "
		}
		return exprSig(v.E, alias) + " " + neg + "like"
	case *sqlir.In:
		neg := ""
		if v.Negate {
			neg = "not "
		}
		if v.Sub != nil {
			var sb strings.Builder
			writeSignature(&sb, v.Sub)
			return exprSig(v.E, alias) + " " + neg + "in(" + sb.String() + ")"
		}
		return exprSig(v.E, alias) + " " + neg + "in(_)"
	case *sqlir.Exists:
		var sb strings.Builder
		writeSignature(&sb, v.Sub)
		neg := ""
		if v.Negate {
			neg = "not "
		}
		return neg + "exists(" + sb.String() + ")"
	case *sqlir.IsNull:
		neg := ""
		if v.Negate {
			neg = "not "
		}
		return exprSig(v.E, alias) + " is " + neg + "null"
	default:
		return exprSig(e, alias)
	}
}

// exprSig renders an expression with aliases resolved and values masked.
func exprSig(e sqlir.Expr, alias map[string]string) string {
	switch v := e.(type) {
	case *sqlir.ColumnRef:
		col := strings.ToLower(v.Column)
		if v.Table == "" {
			return col
		}
		t := strings.ToLower(v.Table)
		if resolved, ok := alias[t]; ok {
			t = resolved
		}
		return t + "." + col
	case *sqlir.Star:
		return "*"
	case *sqlir.Literal:
		return "_" // values are masked in EM
	case *sqlir.Agg:
		var args []string
		for _, a := range v.Args {
			args = append(args, exprSig(a, alias))
		}
		d := ""
		if v.Distinct {
			d = "distinct "
		}
		return strings.ToLower(v.Fn) + "(" + d + strings.Join(args, ",") + ")"
	case *sqlir.Binary:
		return exprSig(v.L, alias) + v.Op + exprSig(v.R, alias)
	case *sqlir.Subquery:
		var sb strings.Builder
		writeSignature(&sb, v.Sel)
		return "(" + sb.String() + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}

func aliasMap(sel *sqlir.Select) map[string]string {
	m := map[string]string{}
	reg := func(tr sqlir.TableRef) {
		m[strings.ToLower(tr.Name())] = strings.ToLower(tr.Table)
	}
	reg(sel.From.Base)
	for _, j := range sel.From.Joins {
		reg(j.Table)
	}
	return m
}

// ExecutionMatch executes both queries on the database and compares results.
// Row order matters only when the gold query orders its output, and a
// query that fails to parse or to execute, gold or prediction, never
// matches. Execution goes through the shared plan cache. It is the
// reference form; a caller that grades several predictions against one
// gold, or one task again and again, builds a Gold instead.
func ExecutionMatch(db *schema.Database, predSQL, goldSQL string) bool {
	gres, err := sqlexec.Shared.Exec(db, goldSQL)
	if err != nil {
		return false
	}
	pres, err := sqlexec.Shared.Exec(db, predSQL)
	if err != nil {
		return false
	}
	return resultsEqual(pres, gres)
}

// resultsEqual compares two results under the metric's canonicalization
// (sqlexec.Result.CanonicalRows); the gold result b decides whether row
// order is significant. Shape mismatches return before any encoding work.
func resultsEqual(a, b *sqlexec.Result) bool {
	if !sameShape(a, b) {
		return false
	}
	return equalsCanonical(a, b, b.Canonical())
}

func sameShape(a, b *sqlexec.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	return len(a.Rows) == 0 || len(a.Rows[0]) == len(b.Rows[0])
}

// equalsCanonical compares a against gold's precomputed canonical rows —
// suite distillation and Gold canonicalize each gold result once and
// compare many candidates against it.
func equalsCanonical(a, gold *sqlexec.Result, goldCanon []string) bool {
	if !sameShape(a, gold) {
		return false
	}
	ra := a.CanonicalRows(gold.Ordered)
	for i := range ra {
		if ra[i] != goldCanon[i] {
			return false
		}
	}
	return true
}
