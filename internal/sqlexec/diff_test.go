package sqlexec

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// This file is the executor's differential oracle: a deliberately naive
// reference evaluator (nested-loop joins, re-executed subqueries, linear
// scans, sort-based dedup — no hash joins, no memoization, no working-set
// reuse) plus tests asserting the engine and the reference produce
// identical results on every corpus gold query and on hundreds of
// randomized queries. Every query runs through both plan shapes — the fully
// optimized plan (hash joins, pushdown, hash IN sets, folding) and the
// Unoptimized() plan (forced nested loops, no rewrites) — and each must
// agree with the reference on results and on exact error text. Future
// executor optimizations must keep beating this oracle.

// ---- reference evaluator ----

type refCol struct {
	qual  string // alias or table name, lower-cased
	table string
	name  string
}

type refRel struct {
	cols []refCol
	rows [][]schema.Value
}

type refEvaluator struct {
	db    *schema.Database
	depth int
}

const refMaxDepth = 16

func refExec(db *schema.Database, sel *sqlir.Select) (*Result, error) {
	return (&refEvaluator{db: db}).query(sel)
}

func (r *refEvaluator) query(sel *sqlir.Select) (*Result, error) {
	r.depth++
	defer func() { r.depth-- }()
	if r.depth > refMaxDepth {
		return nil, errors.New("ref: query nesting too deep")
	}
	left, err := r.selectOne(sel)
	if err != nil {
		return nil, err
	}
	if sel.Compound == nil {
		return left, nil
	}
	right, err := r.query(sel.Compound.Right)
	if err != nil {
		return nil, err
	}
	if len(left.Cols) != len(right.Cols) {
		return nil, fmt.Errorf("ref: set operands have %d vs %d columns", len(left.Cols), len(right.Cols))
	}
	out := &Result{Cols: left.Cols}
	switch sel.Compound.Op {
	case "UNION":
		if sel.Compound.All {
			out.Rows = append(append([][]schema.Value{}, left.Rows...), right.Rows...)
			return out, nil
		}
		for _, row := range append(append([][]schema.Value{}, left.Rows...), right.Rows...) {
			if !refContains(out.Rows, row) {
				out.Rows = append(out.Rows, row)
			}
		}
	case "INTERSECT":
		for _, row := range left.Rows {
			if refContains(right.Rows, row) && !refContains(out.Rows, row) {
				out.Rows = append(out.Rows, row)
			}
		}
	case "EXCEPT":
		for _, row := range left.Rows {
			if !refContains(right.Rows, row) && !refContains(out.Rows, row) {
				out.Rows = append(out.Rows, row)
			}
		}
	default:
		return nil, fmt.Errorf("ref: unknown set op %q", sel.Compound.Op)
	}
	refSortRows(out.Rows)
	return out, nil
}

func refRowKey(row []schema.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = strings.ToLower(v.String())
	}
	return strings.Join(parts, "\x1f")
}

func refContains(rows [][]schema.Value, row []schema.Value) bool {
	for _, r := range rows {
		if refRowKey(r) == refRowKey(row) {
			return true
		}
	}
	return false
}

func refSortRows(rows [][]schema.Value) {
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

func (r *refEvaluator) selectOne(sel *sqlir.Select) (*Result, error) {
	rel, err := r.from(sel.From)
	if err != nil {
		return nil, err
	}
	if sel.Where != nil {
		var kept [][]schema.Value
		for _, row := range rel.rows {
			ok, err := r.boolRow(sel.Where, rel.cols, row)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
	}

	hasAgg := false
	for _, it := range sel.Items {
		if refHasAgg(it.Expr) {
			hasAgg = true
		}
	}
	for _, o := range sel.OrderBy {
		if refHasAgg(o.Expr) {
			hasAgg = true
		}
	}

	var groups [][][]schema.Value
	grouped := false
	if len(sel.GroupBy) > 0 {
		grouped = true
		idx := make([]int, len(sel.GroupBy))
		for i, g := range sel.GroupBy {
			j, err := refResolve(g, rel.cols)
			if err != nil {
				return nil, err
			}
			idx[i] = j
		}
		// First-occurrence order, linear scan per row.
		var keys []string
		byKey := map[string]int{}
		for _, row := range rel.rows {
			parts := make([]string, len(idx))
			for i, j := range idx {
				parts[i] = strings.ToLower(row[j].String())
			}
			k := strings.Join(parts, "\x1f")
			gi, ok := byKey[k]
			if !ok {
				gi = len(groups)
				byKey[k] = gi
				keys = append(keys, k)
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], row)
		}
		_ = keys
		if sel.Having != nil {
			var kept [][][]schema.Value
			for _, g := range groups {
				ok, err := r.boolGroup(sel.Having, rel.cols, g)
				if err != nil {
					return nil, err
				}
				if ok {
					kept = append(kept, g)
				}
			}
			groups = kept
		}
	} else if hasAgg {
		grouped = true
		groups = [][][]schema.Value{rel.rows}
	}

	out := &Result{}
	starOnly := len(sel.Items) == 1 && refIsStar(sel.Items[0].Expr)

	type row struct {
		cells []schema.Value
		keys  []schema.Value
	}
	var rows []row
	if starOnly && !grouped {
		for _, c := range rel.cols {
			out.Cols = append(out.Cols, c.name)
		}
		for _, rr := range rel.rows {
			var keys []schema.Value
			for _, o := range sel.OrderBy {
				v, err := r.valRow(o.Expr, rel.cols, rr)
				if err != nil {
					return nil, err
				}
				keys = append(keys, v)
			}
			rows = append(rows, row{cells: rr, keys: keys})
		}
	} else {
		for _, it := range sel.Items {
			out.Cols = append(out.Cols, refItemName(it))
		}
		eval := func(evalOne func(sqlir.Expr) (schema.Value, error)) error {
			var cells []schema.Value
			for _, it := range sel.Items {
				if refIsStar(it.Expr) {
					// Like any item that cannot evaluate, a * beside other
					// items or under grouping errors only once a row or
					// group is projected, and only if no earlier item erred.
					return errors.New("ref: SELECT * mixed with other items is unsupported")
				}
				v, err := evalOne(it.Expr)
				if err != nil {
					return err
				}
				cells = append(cells, v)
			}
			var keys []schema.Value
			for _, o := range sel.OrderBy {
				v, err := evalOne(o.Expr)
				if err != nil {
					return err
				}
				keys = append(keys, v)
			}
			rows = append(rows, row{cells: cells, keys: keys})
			return nil
		}
		if grouped {
			for _, g := range groups {
				g := g
				if err := eval(func(ex sqlir.Expr) (schema.Value, error) {
					return r.valGroup(ex, rel.cols, g)
				}); err != nil {
					return nil, err
				}
			}
		} else {
			for _, rr := range rel.rows {
				rr := rr
				if err := eval(func(ex sqlir.Expr) (schema.Value, error) {
					return r.valRow(ex, rel.cols, rr)
				}); err != nil {
					return nil, err
				}
			}
		}
	}

	if len(sel.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for k, o := range sel.OrderBy {
				c := rows[i].keys[k].Compare(rows[j].keys[k])
				if o.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		out.Ordered = true
	}
	for _, rr := range rows {
		out.Rows = append(out.Rows, rr.cells)
	}
	if sel.Distinct {
		var dedup [][]schema.Value
		for _, rr := range out.Rows {
			if !refContains(dedup, rr) {
				dedup = append(dedup, rr)
			}
		}
		out.Rows = dedup
	}
	if sel.HasLimit && sel.Limit >= 0 && len(out.Rows) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
	}
	return out, nil
}

func refIsStar(e sqlir.Expr) bool {
	_, ok := e.(*sqlir.Star)
	return ok
}

func refItemName(it sqlir.SelectItem) string {
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

// from builds the working relation with plain nested-loop joins.
func (r *refEvaluator) from(f sqlir.From) (*refRel, error) {
	rel, err := r.table(f.Base)
	if err != nil {
		return nil, err
	}
	for _, j := range f.Joins {
		rt, err := r.table(j.Table)
		if err != nil {
			return nil, err
		}
		lSide, lIdx, err := refResolveJoin(j.Left, rel.cols, rt.cols)
		if err != nil {
			return nil, err
		}
		rSide, rIdx, err := refResolveJoin(j.Right, rel.cols, rt.cols)
		if err != nil {
			return nil, err
		}
		joined := &refRel{cols: append(append([]refCol{}, rel.cols...), rt.cols...)}
		for _, lrow := range rel.rows {
			for _, rrow := range rt.rows {
				pick := func(side bool, idx int) schema.Value {
					if side {
						return rrow[idx]
					}
					return lrow[idx]
				}
				lv := pick(lSide, lIdx)
				rv := pick(rSide, rIdx)
				if lv.IsNull() || rv.IsNull() || !lv.Equal(rv) {
					continue
				}
				joined.rows = append(joined.rows, append(append([]schema.Value{}, lrow...), rrow...))
			}
		}
		rel = joined
	}
	return rel, nil
}

// refResolveJoin mirrors the executor's ON-column resolution: try the left
// side first (ambiguity is an error), then the right.
func refResolveJoin(c *sqlir.ColumnRef, left, right []refCol) (rightSide bool, idx int, err error) {
	i, err := refResolve(c, left)
	if err == nil {
		return false, i, nil
	}
	if errors.Is(err, ErrAmbiguousColumn) {
		return false, 0, err
	}
	i, err = refResolve(c, right)
	if err != nil {
		return false, 0, err
	}
	return true, i, nil
}

func (r *refEvaluator) table(tr sqlir.TableRef) (*refRel, error) {
	t := r.db.Table(tr.Table)
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, tr.Table)
	}
	q := strings.ToLower(tr.Name())
	rel := &refRel{rows: t.Rows}
	for _, c := range t.Columns {
		rel.cols = append(rel.cols, refCol{qual: q, table: strings.ToLower(t.Name), name: strings.ToLower(c.Name)})
	}
	return rel, nil
}

func refResolve(c *sqlir.ColumnRef, cols []refCol) (int, error) {
	name := strings.ToLower(c.Column)
	qual := strings.ToLower(c.Table)
	found := -1
	for i, b := range cols {
		if b.name != name {
			continue
		}
		if qual != "" && b.qual != qual && b.table != qual {
			continue
		}
		if found >= 0 {
			if qual == "" {
				return 0, fmt.Errorf("%w: %s", ErrAmbiguousColumn, c.Column)
			}
			continue // qualified: first match wins
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

func refHasAgg(e sqlir.Expr) bool {
	switch v := e.(type) {
	case *sqlir.Agg:
		if sqlir.AggFuncs[v.Fn] {
			return true
		}
		for _, a := range v.Args {
			if refHasAgg(a) {
				return true
			}
		}
	case *sqlir.Binary:
		return refHasAgg(v.L) || refHasAgg(v.R)
	case *sqlir.Not:
		return refHasAgg(v.E)
	case *sqlir.Between:
		return refHasAgg(v.E)
	case *sqlir.Like:
		return refHasAgg(v.E)
	case *sqlir.In:
		return refHasAgg(v.E)
	case *sqlir.IsNull:
		return refHasAgg(v.E)
	}
	return false
}

// ---- scalar and boolean evaluation ----

func refNum(s string) (float64, bool) {
	var f float64
	var read int
	if _, err := fmt.Sscanf(s, "%g%n", &f, &read); err != nil || read != len(s) {
		return 0, false
	}
	return f, true
}

func (r *refEvaluator) valRow(ex sqlir.Expr, cols []refCol, row []schema.Value) (schema.Value, error) {
	switch v := ex.(type) {
	case *sqlir.ColumnRef:
		i, err := refResolve(v, cols)
		if err != nil {
			return schema.Null(), err
		}
		return row[i], nil
	case *sqlir.Literal:
		if v.IsString {
			return schema.S(v.Str), nil
		}
		return schema.N(v.Num), nil
	case *sqlir.Binary:
		switch v.Op {
		case "+", "-", "*", "/":
			l, err := r.valRow(v.L, cols, row)
			if err != nil {
				return schema.Null(), err
			}
			rv, err := r.valRow(v.R, cols, row)
			if err != nil {
				return schema.Null(), err
			}
			return refArith(v.Op, l, rv)
		}
	case *sqlir.Subquery:
		return r.scalar(v.Sel)
	case *sqlir.Agg:
		if !sqlir.AggFuncs[v.Fn] {
			return schema.Null(), fmt.Errorf("%w: %s", ErrUnknownFunction, v.Fn)
		}
		return schema.Null(), fmt.Errorf("ref: aggregate %s in row context", v.Fn)
	}
	ok, err := r.boolRow(ex, cols, row)
	if err != nil {
		return schema.Null(), err
	}
	if ok {
		return schema.N(1), nil
	}
	return schema.N(0), nil
}

func refArith(op string, l, r schema.Value) (schema.Value, error) {
	if l.IsNull() || r.IsNull() {
		return schema.Null(), nil
	}
	if l.Kind != schema.KindNum || r.Kind != schema.KindNum {
		return schema.Null(), errors.New("ref: arithmetic on non-numeric values")
	}
	switch op {
	case "+":
		return schema.N(l.Num + r.Num), nil
	case "-":
		return schema.N(l.Num - r.Num), nil
	case "*":
		return schema.N(l.Num * r.Num), nil
	case "/":
		if r.Num == 0 {
			return schema.Null(), nil
		}
		return schema.N(l.Num / r.Num), nil
	}
	return schema.Null(), fmt.Errorf("ref: unknown arithmetic op %q", op)
}

func refCompare(op string, l, r schema.Value) bool {
	if l.IsNull() || r.IsNull() {
		return false
	}
	if l.Kind != r.Kind {
		if l.Kind == schema.KindStr && r.Kind == schema.KindNum {
			if n, ok := refNum(l.Str); ok {
				l = schema.N(n)
			}
		} else if l.Kind == schema.KindNum && r.Kind == schema.KindStr {
			if n, ok := refNum(r.Str); ok {
				r = schema.N(n)
			}
		}
	}
	c := l.Compare(r)
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

func refLike(s, pattern string) bool {
	s, pattern = strings.ToLower(s), strings.ToLower(pattern)
	var match func(s, p string) bool
	match = func(s, p string) bool {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if match(s[i:], p[1:]) {
					return true
				}
			}
			return false
		case '_':
			return s != "" && match(s[1:], p[1:])
		default:
			return s != "" && s[0] == p[0] && match(s[1:], p[1:])
		}
	}
	return match(s, pattern)
}

func (r *refEvaluator) boolRow(ex sqlir.Expr, cols []refCol, row []schema.Value) (bool, error) {
	switch v := ex.(type) {
	case *sqlir.Binary:
		switch v.Op {
		case "AND":
			l, err := r.boolRow(v.L, cols, row)
			if err != nil || !l {
				return false, err
			}
			return r.boolRow(v.R, cols, row)
		case "OR":
			l, err := r.boolRow(v.L, cols, row)
			if err != nil {
				return false, err
			}
			if l {
				return true, nil
			}
			return r.boolRow(v.R, cols, row)
		case "=", "!=", "<", "<=", ">", ">=":
			l, err := r.valRow(v.L, cols, row)
			if err != nil {
				return false, err
			}
			rv, err := r.valRow(v.R, cols, row)
			if err != nil {
				return false, err
			}
			return refCompare(v.Op, l, rv), nil
		default:
			return false, fmt.Errorf("ref: unexpected operator %q in boolean context", v.Op)
		}
	case *sqlir.Not:
		b, err := r.boolRow(v.E, cols, row)
		return !b, err
	case *sqlir.Between:
		x, err := r.valRow(v.E, cols, row)
		if err != nil {
			return false, err
		}
		lo, err := r.valRow(v.Lo, cols, row)
		if err != nil {
			return false, err
		}
		hi, err := r.valRow(v.Hi, cols, row)
		if err != nil {
			return false, err
		}
		in := !x.IsNull() && x.Compare(lo) >= 0 && x.Compare(hi) <= 0
		return in != v.Negate, nil
	case *sqlir.Like:
		x, err := r.valRow(v.E, cols, row)
		if err != nil {
			return false, err
		}
		p, err := r.valRow(v.Pattern, cols, row)
		if err != nil {
			return false, err
		}
		return refLike(x.String(), p.String()) != v.Negate, nil
	case *sqlir.In:
		x, err := r.valRow(v.E, cols, row)
		if err != nil {
			return false, err
		}
		var members []schema.Value
		if v.Sub != nil {
			res, err := r.query(v.Sub) // naive: re-executed per row
			if err != nil {
				return false, err
			}
			for _, rr := range res.Rows {
				if len(rr) > 0 {
					members = append(members, rr[0])
				}
			}
		} else {
			for _, it := range v.List {
				m, err := r.valRow(it, cols, row)
				if err != nil {
					return false, err
				}
				members = append(members, m)
			}
		}
		found := false
		for _, m := range members {
			if x.Equal(m) {
				found = true
				break
			}
		}
		return found != v.Negate, nil
	case *sqlir.Exists:
		res, err := r.query(v.Sub)
		if err != nil {
			return false, err
		}
		return (len(res.Rows) > 0) != v.Negate, nil
	case *sqlir.IsNull:
		x, err := r.valRow(v.E, cols, row)
		if err != nil {
			return false, err
		}
		return x.IsNull() != v.Negate, nil
	case *sqlir.Literal:
		if v.IsString {
			return v.Str != "", nil
		}
		return v.Num != 0, nil
	default:
		return false, fmt.Errorf("ref: expression %T not valid in boolean context", ex)
	}
}

func (r *refEvaluator) scalar(sel *sqlir.Select) (schema.Value, error) {
	res, err := r.query(sel)
	if err != nil {
		return schema.Null(), err
	}
	if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
		return schema.Null(), nil
	}
	return res.Rows[0][0], nil
}

func (r *refEvaluator) valGroup(ex sqlir.Expr, cols []refCol, group [][]schema.Value) (schema.Value, error) {
	switch v := ex.(type) {
	case *sqlir.Agg:
		return r.agg(v, cols, group)
	case *sqlir.ColumnRef, *sqlir.Literal, *sqlir.Subquery:
		if len(group) == 0 {
			if _, ok := ex.(*sqlir.Literal); ok {
				return r.valRow(ex, cols, nil)
			}
			return schema.Null(), nil
		}
		return r.valRow(ex, cols, group[0])
	case *sqlir.Binary:
		switch v.Op {
		case "+", "-", "*", "/":
			l, err := r.valGroup(v.L, cols, group)
			if err != nil {
				return schema.Null(), err
			}
			rv, err := r.valGroup(v.R, cols, group)
			if err != nil {
				return schema.Null(), err
			}
			return refArith(v.Op, l, rv)
		}
		ok, err := r.boolGroup(ex, cols, group)
		if err != nil {
			return schema.Null(), err
		}
		if ok {
			return schema.N(1), nil
		}
		return schema.N(0), nil
	default:
		if len(group) == 0 {
			return schema.Null(), nil
		}
		return r.valRow(ex, cols, group[0])
	}
}

func (r *refEvaluator) boolGroup(ex sqlir.Expr, cols []refCol, group [][]schema.Value) (bool, error) {
	switch v := ex.(type) {
	case *sqlir.Binary:
		switch v.Op {
		case "AND":
			l, err := r.boolGroup(v.L, cols, group)
			if err != nil || !l {
				return false, err
			}
			return r.boolGroup(v.R, cols, group)
		case "OR":
			l, err := r.boolGroup(v.L, cols, group)
			if err != nil {
				return false, err
			}
			if l {
				return true, nil
			}
			return r.boolGroup(v.R, cols, group)
		case "=", "!=", "<", "<=", ">", ">=":
			l, err := r.valGroup(v.L, cols, group)
			if err != nil {
				return false, err
			}
			rv, err := r.valGroup(v.R, cols, group)
			if err != nil {
				return false, err
			}
			return refCompare(v.Op, l, rv), nil
		}
		return false, fmt.Errorf("ref: unexpected operator %q in HAVING", v.Op)
	case *sqlir.Not:
		b, err := r.boolGroup(v.E, cols, group)
		return !b, err
	default:
		if len(group) == 0 {
			return false, nil
		}
		return r.boolRow(ex, cols, group[0])
	}
}

func (r *refEvaluator) agg(a *sqlir.Agg, cols []refCol, group [][]schema.Value) (schema.Value, error) {
	if !sqlir.AggFuncs[a.Fn] {
		return schema.Null(), fmt.Errorf("%w: %s", ErrUnknownFunction, a.Fn)
	}
	if len(a.Args) != 1 {
		return schema.Null(), fmt.Errorf("%w: %s takes 1 argument, got %d", ErrAggArity, a.Fn, len(a.Args))
	}
	if _, isStar := a.Args[0].(*sqlir.Star); isStar {
		if a.Fn != "COUNT" {
			return schema.Null(), fmt.Errorf("%w: %s(*)", ErrUnknownFunction, a.Fn)
		}
		return schema.N(float64(len(group))), nil
	}
	var vals []schema.Value
	for _, row := range group {
		v, err := r.valRow(a.Args[0], cols, row)
		if err != nil {
			return schema.Null(), err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	if a.Distinct {
		var uniq []schema.Value
		for _, v := range vals {
			dup := false
			for _, u := range uniq {
				if strings.ToLower(u.String()) == strings.ToLower(v.String()) {
					dup = true
					break
				}
			}
			if !dup {
				uniq = append(uniq, v)
			}
		}
		vals = uniq
	}
	switch a.Fn {
	case "COUNT":
		return schema.N(float64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return schema.Null(), nil
		}
		sum := 0.0
		for _, v := range vals {
			if v.Kind == schema.KindNum {
				sum += v.Num
			} else if n, ok := refNum(v.Str); ok {
				sum += n
			}
		}
		if a.Fn == "AVG" {
			return schema.N(sum / float64(len(vals))), nil
		}
		return schema.N(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return schema.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := v.Compare(best)
			if (a.Fn == "MIN" && c < 0) || (a.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return schema.Null(), fmt.Errorf("%w: %s", ErrUnknownFunction, a.Fn)
}

// ---- differential comparison ----

func renderRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

// sameResult compares engine and reference output: identical columns,
// identical row sequences when ordered, identical row multisets otherwise.
// Rows are compared twice: through the engine's one canonical encoding
// (Result.CanonicalRows — the encoding the EX/TS metrics and the
// consistency vote use, so metric-visible divergence is caught in the
// metric's own terms) and exactly (raw v.String() cells), so a physical
// path returning a case-different representative row still fails the
// oracle.
func sameResult(got, want *Result) string {
	if got.Ordered != want.Ordered {
		return fmt.Sprintf("ordered flag %v vs %v", got.Ordered, want.Ordered)
	}
	if len(got.Cols) != len(want.Cols) {
		return fmt.Sprintf("column count %d vs %d", len(got.Cols), len(want.Cols))
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			return fmt.Sprintf("column %d name %q vs %q", i, got.Cols[i], want.Cols[i])
		}
	}
	g, w := got.CanonicalRows(got.Ordered), want.CanonicalRows(got.Ordered)
	if len(g) != len(w) {
		return fmt.Sprintf("row count %d vs %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("row %d: %q vs %q", i, g[i], w[i])
		}
	}
	ge, we := renderRows(got), renderRows(want)
	if !got.Ordered {
		sort.Strings(ge)
		sort.Strings(we)
	}
	for i := range ge {
		if ge[i] != we[i] {
			return fmt.Sprintf("row %d (exact): %q vs %q", i, ge[i], we[i])
		}
	}
	return ""
}

// diffPaths is both plan shapes a query can take: the fully optimized plan
// and the forced nested-loop/unoptimized plan.
var diffPaths = []struct {
	name string
	opts PlanOptions
}{
	{"optimized", PlanOptions{}},
	{"unoptimized", Unoptimized()},
}

// errText is an error's message without the engine's "sqlexec: " or the
// reference's "ref: " prefix.
func errText(err error) string {
	s := err.Error()
	for _, prefix := range []string{"sqlexec: ", "ref: "} {
		if rest, ok := strings.CutPrefix(s, prefix); ok {
			return rest
		}
	}
	return s
}

// diffOne runs one query through both plan shapes and the reference
// evaluator, and demands agreement on results and on exact error text. The
// text pins lazy-error ordering: which error fires first is observable
// whenever a row carries more than one fault.
func diffOne(t *testing.T, db *schema.Database, sel *sqlir.Select) (ok, executed bool) {
	t.Helper()
	want, wantErr := refExec(db, sel)
	sql := ""
	lazySQL := func() string {
		if sql == "" {
			sql = sqlir.String(sel)
		}
		return sql
	}
	ok = true
	for _, path := range diffPaths {
		got, gotErr := ExecOptions(db, sel, path.opts)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && errText(gotErr) != errText(wantErr)) {
			t.Errorf("[%s] error disagreement on %q (db %s)\n  engine: %v\n  ref:    %v", path.name, lazySQL(), db.Name, gotErr, wantErr)
			ok = false
			continue
		}
		if gotErr != nil {
			continue
		}
		if msg := sameResult(got, want); msg != "" {
			t.Errorf("[%s] result divergence on %q (db %s): %s", path.name, lazySQL(), db.Name, msg)
			ok = false
		}
	}
	return ok, wantErr == nil
}

// TestDifferentialGoldQueries runs every gold query the sampler produces
// through both evaluators.
func TestDifferentialGoldQueries(t *testing.T) {
	c := spider.GenerateSmall(123, 0.08)
	n := 0
	for _, b := range []*spider.Benchmark{c.Train, c.Dev, c.DK, c.Realistic, c.Syn} {
		for _, e := range b.Examples {
			diffOne(t, e.DB, e.Gold)
			n++
		}
	}
	if n < 100 {
		t.Fatalf("only %d gold queries exercised", n)
	}
}

// ---- randomized query generator ----

type qgen struct {
	r  *rand.Rand
	db *schema.Database
}

func (g *qgen) pickTable() *schema.Table {
	return g.db.Tables[g.r.Intn(len(g.db.Tables))]
}

func (g *qgen) pickCol(t *schema.Table) schema.Column {
	return t.Columns[g.r.Intn(len(t.Columns))]
}

// sampleValue draws a literal from the column's actual data (making
// predicates selective) or invents one.
func (g *qgen) sampleValue(t *schema.Table, c schema.Column) sqlir.Expr {
	vals := g.db.RepresentativeValues(t.Name, c.Name, 8)
	if len(vals) > 0 && g.r.Intn(5) > 0 {
		v := vals[g.r.Intn(len(vals))]
		if v.Kind == schema.KindNum {
			return &sqlir.Literal{Num: v.Num}
		}
		if v.Kind == schema.KindStr {
			return &sqlir.Literal{IsString: true, Str: v.Str}
		}
	}
	if g.r.Intn(2) == 0 {
		return &sqlir.Literal{Num: float64(g.r.Intn(200))}
	}
	return &sqlir.Literal{IsString: true, Str: fmt.Sprintf("v%d", g.r.Intn(50))}
}

func (g *qgen) colRef(qual string, c schema.Column) *sqlir.ColumnRef {
	return &sqlir.ColumnRef{Table: qual, Column: c.Name}
}

var cmpOps = []string{"=", "!=", "<", "<=", ">", ">="}

// predicate builds one WHERE-able predicate over table t (qualified with
// qual when non-empty).
func (g *qgen) predicate(t *schema.Table, qual string) sqlir.Expr {
	c := g.pickCol(t)
	ref := g.colRef(qual, c)
	switch g.r.Intn(10) {
	case 0, 1, 2, 3:
		return &sqlir.Binary{Op: cmpOps[g.r.Intn(len(cmpOps))], L: ref, R: g.sampleValue(t, c)}
	case 4:
		var list []sqlir.Expr
		for i := 0; i < 1+g.r.Intn(3); i++ {
			list = append(list, g.sampleValue(t, c))
		}
		return &sqlir.In{E: ref, List: list, Negate: g.r.Intn(3) == 0}
	case 5:
		lo, hi := g.r.Intn(100), g.r.Intn(200)
		return &sqlir.Between{E: ref,
			Lo:     &sqlir.Literal{Num: float64(lo)},
			Hi:     &sqlir.Literal{Num: float64(lo + hi)},
			Negate: g.r.Intn(4) == 0}
	case 6:
		pat := "%" + fmt.Sprintf("%d", g.r.Intn(10)) + "%"
		if vals := g.db.RepresentativeValues(t.Name, c.Name, 4); len(vals) > 0 && vals[0].Kind == schema.KindStr {
			s := vals[g.r.Intn(len(vals))].String()
			if len(s) > 2 {
				pat = s[:2] + "%"
			}
		}
		return &sqlir.Like{E: ref, Pattern: &sqlir.Literal{IsString: true, Str: pat}, Negate: g.r.Intn(4) == 0}
	case 7:
		return &sqlir.IsNull{E: ref, Negate: g.r.Intn(2) == 0}
	case 8:
		return &sqlir.Not{E: &sqlir.Binary{Op: "=", L: ref, R: g.sampleValue(t, c)}}
	default:
		// Subquery membership over another table's column.
		t2 := g.pickTable()
		c2 := g.pickCol(t2)
		sub := sqlir.NewSelect()
		sub.Items = []sqlir.SelectItem{{Expr: &sqlir.ColumnRef{Column: c2.Name}}}
		sub.From = sqlir.From{Base: sqlir.TableRef{Table: t2.Name}}
		return &sqlir.In{E: ref, Sub: sub, Negate: g.r.Intn(3) == 0}
	}
}

func (g *qgen) where(t *schema.Table, qual string) sqlir.Expr {
	p := g.predicate(t, qual)
	for g.r.Intn(3) == 0 {
		op := "AND"
		if g.r.Intn(2) == 0 {
			op = "OR"
		}
		p = &sqlir.Binary{Op: op, L: p, R: g.predicate(t, qual)}
	}
	return p
}

var aggFns = []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

// query builds one random (valid-by-construction) query.
func (g *qgen) query() *sqlir.Select {
	sel := sqlir.NewSelect()
	t := g.pickTable()
	qual := ""
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}

	// Optional FK join (alias both sides half the time).
	var joined *schema.Table
	for other := range g.db.Adjacency()[strings.ToLower(t.Name)] {
		if g.r.Intn(2) == 0 {
			continue
		}
		fk, ok := g.db.FKBetween(t.Name, other)
		if !ok {
			break
		}
		joined = g.db.Table(other)
		jqual := ""
		if g.r.Intn(2) == 0 {
			sel.From.Base.Alias = "T1"
			qual = "T1"
			jqual = "T2"
		}
		lq, rq := qual, jqual
		if !strings.EqualFold(fk.FromTable, t.Name) {
			lq, rq = jqual, qual
		}
		sel.From.Joins = []sqlir.Join{{
			Table: sqlir.TableRef{Table: joined.Name, Alias: jqual},
			Left:  &sqlir.ColumnRef{Table: lq, Column: fk.FromColumn},
			Right: &sqlir.ColumnRef{Table: rq, Column: fk.ToColumn},
		}}
		break
	}

	grouped := g.r.Intn(4) == 0
	switch {
	case grouped:
		c := g.pickCol(t)
		sel.GroupBy = []*sqlir.ColumnRef{g.colRef(qual, c)}
		sel.Items = []sqlir.SelectItem{
			{Expr: g.colRef(qual, c)},
			{Expr: &sqlir.Agg{Fn: aggFns[g.r.Intn(len(aggFns))], Args: []sqlir.Expr{g.colRef(qual, g.pickCol(t))}}},
		}
		if g.r.Intn(2) == 0 {
			sel.Having = &sqlir.Binary{
				Op: []string{">", ">="}[g.r.Intn(2)],
				L:  &sqlir.Agg{Fn: "COUNT", Args: []sqlir.Expr{&sqlir.Star{}}},
				R:  &sqlir.Literal{Num: float64(1 + g.r.Intn(3))},
			}
		}
	case g.r.Intn(6) == 0:
		sel.Items = []sqlir.SelectItem{{Expr: &sqlir.Star{}}}
	case g.r.Intn(5) == 0:
		sel.Items = []sqlir.SelectItem{{Expr: &sqlir.Agg{
			Fn:       aggFns[g.r.Intn(len(aggFns))],
			Distinct: g.r.Intn(4) == 0,
			Args:     []sqlir.Expr{g.colRef(qual, g.pickCol(t))},
		}}}
		if g.r.Intn(3) == 0 {
			sel.Items = append(sel.Items, sqlir.SelectItem{Expr: &sqlir.Agg{Fn: "COUNT", Args: []sqlir.Expr{&sqlir.Star{}}}})
		}
	default:
		n := 1 + g.r.Intn(3)
		for i := 0; i < n; i++ {
			src, sq := t, qual
			if joined != nil && g.r.Intn(2) == 0 {
				src = joined
				if qual != "" {
					sq = "T2"
				}
			}
			sel.Items = append(sel.Items, sqlir.SelectItem{Expr: g.colRef(sq, g.pickCol(src))})
		}
		sel.Distinct = g.r.Intn(5) == 0
	}

	if g.r.Intn(3) > 0 {
		sel.Where = g.where(t, qual)
	}

	// ORDER BY over something already projected (or a fresh column when not
	// grouped), sometimes with LIMIT.
	if g.r.Intn(3) == 0 && len(sel.Items) > 0 {
		var key sqlir.Expr
		if it := sel.Items[g.r.Intn(len(sel.Items))]; !refIsStar(it.Expr) {
			key = it.Expr
		} else {
			key = g.colRef(qual, g.pickCol(t))
		}
		sel.OrderBy = []sqlir.OrderItem{{Expr: key, Desc: g.r.Intn(2) == 0}}
		if g.r.Intn(2) == 0 {
			sel.HasLimit = true
			sel.Limit = g.r.Intn(6)
		}
	}

	// Occasional compound over a single shared column.
	if !grouped && g.r.Intn(8) == 0 && len(sel.From.Joins) == 0 && !refIsStar(sel.Items[0].Expr) {
		if cr, ok := sel.Items[0].Expr.(*sqlir.ColumnRef); ok {
			sel.Items = sel.Items[:1]
			sel.OrderBy, sel.HasLimit, sel.Limit = nil, false, -1
			right := sqlir.NewSelect()
			right.Items = []sqlir.SelectItem{{Expr: &sqlir.ColumnRef{Column: cr.Column}}}
			right.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
			if g.r.Intn(2) == 0 {
				right.Where = g.predicate(t, "")
			}
			op := []string{"UNION", "INTERSECT", "EXCEPT"}[g.r.Intn(3)]
			sel.Compound = &sqlir.Compound{Op: op, All: op == "UNION" && g.r.Intn(4) == 0, Right: right}
		}
	}
	return sel
}

// TestDifferentialDirectedCases covers corners the random generator does
// not reach: IN lists with non-literal, error-capable members (evaluation
// order of the member list is observable through errors), bare-column
// predicates (boolean-context errors interacting with pushdown), and three
// errors whose exact text the engine and the reference must share.
func TestDifferentialDirectedCases(t *testing.T) {
	c := spider.GenerateSmall(123, 0.08)
	for _, db := range c.Dev.Databases {
		var numCol, strCol string
		tbl := db.Tables[0]
		for _, col := range tbl.Columns {
			if col.Type == schema.TypeNumber && numCol == "" {
				numCol = col.Name
			}
			if col.Type == schema.TypeText && strCol == "" {
				strCol = col.Name
			}
		}
		if numCol == "" || strCol == "" {
			continue
		}
		mk := func(where sqlir.Expr) *sqlir.Select {
			sel := sqlir.NewSelect()
			sel.Items = []sqlir.SelectItem{{Expr: &sqlir.ColumnRef{Column: numCol}}}
			sel.From = sqlir.From{Base: sqlir.TableRef{Table: tbl.Name}}
			sel.Where = where
			return sel
		}
		num := &sqlir.ColumnRef{Column: numCol}
		str := &sqlir.ColumnRef{Column: strCol}
		cases := []*sqlir.Select{
			// Self-match first, erroring member second: the error must
			// still surface (the member list is fully evaluated).
			mk(&sqlir.In{E: num, List: []sqlir.Expr{num, &sqlir.Binary{Op: "+", L: str, R: &sqlir.Literal{Num: 1}}}}),
			// Non-literal but clean members.
			mk(&sqlir.In{E: num, List: []sqlir.Expr{num, &sqlir.Binary{Op: "*", L: num, R: &sqlir.Literal{Num: 2}}}}),
			// Bare column as a predicate: boolean-context error.
			mk(num),
			mk(&sqlir.Binary{Op: "AND", L: &sqlir.Binary{Op: ">", L: num, R: &sqlir.Literal{Num: -1}}, R: str}),
		}
		for _, sel := range cases {
			diffOne(t, db, sel)
		}

		// Each of these must raise an error whose exact text the engine
		// and the reference share: a qualified unknown column names its
		// qualifier, aggregate arity names the count, and * beside another
		// item is rejected.
		sub := sqlir.NewSelect()
		sub.Items = []sqlir.SelectItem{{Expr: &sqlir.ColumnRef{Table: "m", Column: numCol}}}
		sub.From = sqlir.From{Base: sqlir.TableRef{Table: tbl.Name}}
		maxTwo := mk(nil)
		maxTwo.Items = []sqlir.SelectItem{{Expr: &sqlir.Agg{Fn: "MAX", Args: []sqlir.Expr{num, str}}}}
		starAnd := mk(nil)
		starAnd.Items = []sqlir.SelectItem{{Expr: &sqlir.Star{}}, {Expr: num}}
		for _, sel := range []*sqlir.Select{mk(&sqlir.In{E: num, Sub: sub}), maxTwo, starAnd} {
			if _, executed := diffOne(t, db, sel); executed {
				t.Errorf("%q (db %s) executed cleanly; want an error", sqlir.String(sel), db.Name)
			}
		}
	}
}

// TestDifferentialRandomQueries is the acceptance gate: ≥500 randomized
// queries produce identical results from the optimized executor and the
// naive reference.
func TestDifferentialRandomQueries(t *testing.T) {
	c := spider.GenerateSmall(123, 0.08)
	dbs := c.Dev.Databases
	if len(dbs) == 0 {
		t.Fatal("no databases")
	}
	r := rand.New(rand.NewSource(20260728))
	const total = 800
	executed, withRows := 0, 0
	for i := 0; i < total; i++ {
		db := dbs[i%len(dbs)]
		g := &qgen{r: r, db: db}
		sel := g.query()
		ok, ran := diffOne(t, db, sel)
		if !ok && testing.Verbose() {
			t.Logf("query %d: %s", i, sqlir.String(sel))
		}
		if ran {
			executed++
			if res, err := Exec(db, sel); err == nil && len(res.Rows) > 0 {
				withRows++
			}
		}
	}
	if executed < 500 {
		t.Fatalf("only %d of %d random queries executed cleanly; generator too error-prone", executed, total)
	}
	if withRows < 100 {
		t.Fatalf("only %d random queries returned rows; generator too vacuous", withRows)
	}
	t.Logf("differential: %d/%d executed, %d returned rows", executed, total, withRows)
}
