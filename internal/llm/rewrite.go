package llm

import (
	"math/rand"
	"strings"

	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// needsGuidance reports whether the class has a semantically different naive
// realization the LLM prior prefers (the paper's Figure 1 failure family).
func needsGuidance(c spider.CompositionClass) bool {
	switch c {
	case spider.ClassExclusionJoin, spider.ClassSuperlative, spider.ClassArgmaxGroup,
		spider.ClassGroupHaving, spider.ClassIntersect, spider.ClassUnion,
		spider.ClassCountDistinct, spider.ClassDistinct:
		return true
	}
	return false
}

// isStyleClass reports whether the class has an equivalent-but-different
// surface form the LLM drifts to without demonstrations. Style drift mostly
// costs EM while keeping EX — the zero-shot signature in Table 1.
func isStyleClass(c spider.CompositionClass) bool {
	switch c {
	case spider.ClassInSub, spider.ClassJoin, spider.ClassExclusion:
		return true
	}
	return false
}

// naiveRewrite applies the LLM-prior composition for the class. Each rewrite
// mirrors a documented LLM failure: NOT-IN instead of EXCEPT+join (Figure 1),
// ORDER-LIMIT for superlatives (tie semantics differ), dropped HAVING,
// AND/OR-merged set operations, dropped DISTINCT.
func naiveRewrite(sel *sqlir.Select, class spider.CompositionClass) *sqlir.Select {
	switch class {
	case spider.ClassExclusionJoin:
		return exclusionJoinToNotIn(sel)
	case spider.ClassSuperlative:
		return superlativeToOrderLimit(sel)
	case spider.ClassArgmaxGroup:
		if len(sel.OrderBy) == 1 && len(sel.GroupBy) == 1 {
			sel.OrderBy[0].Expr = sqlir.CloneExpr(sel.GroupBy[0])
		}
		return sel
	case spider.ClassGroupHaving:
		sel.Having = nil
		return sel
	case spider.ClassIntersect:
		return mergeCompound(sel, "AND")
	case spider.ClassUnion:
		return mergeCompound(sel, "OR")
	case spider.ClassCountDistinct:
		sqlir.WalkExprs(sel, func(e sqlir.Expr) {
			if a, ok := e.(*sqlir.Agg); ok {
				a.Distinct = false
			}
		})
		return sel
	case spider.ClassDistinct:
		sel.Distinct = false
		return sel
	}
	return sel
}

// exclusionJoinToNotIn rewrites `SELECT c FROM p EXCEPT SELECT T1.c FROM p AS
// T1 JOIN t AS T2 ON T1.pk = T2.fk WHERE T2.x = v` into the naive
// `SELECT c FROM p WHERE pk NOT IN (SELECT fk FROM t WHERE x = v)`, losing
// the EXCEPT deduplication — the exact DAIL/C3 failure in Figure 1.
func exclusionJoinToNotIn(sel *sqlir.Select) *sqlir.Select {
	if sel.Compound == nil || len(sel.Compound.Right.From.Joins) == 0 {
		return sel
	}
	right := sel.Compound.Right
	join := right.From.Joins[0]
	inner := sqlir.NewSelect()
	inner.Items = []sqlir.SelectItem{{Expr: &sqlir.ColumnRef{Column: join.Right.Column}}}
	inner.From = sqlir.From{Base: sqlir.TableRef{Table: right.From.Joins[0].Table.Table}}
	if right.Where != nil {
		inner.Where = stripQualifiers(sqlir.CloneExpr(right.Where))
	}
	out := sqlir.NewSelect()
	out.Items = sel.Items
	out.From = sqlir.From{Base: sel.From.Base}
	out.Where = &sqlir.In{
		E:      &sqlir.ColumnRef{Column: join.Left.Column},
		Sub:    inner,
		Negate: true,
	}
	return out
}

// superlativeToOrderLimit rewrites `WHERE x = (SELECT MAX(x) ...)` into
// `ORDER BY x DESC LIMIT 1` — equal only when the extreme is unique.
func superlativeToOrderLimit(sel *sqlir.Select) *sqlir.Select {
	bin, ok := sel.Where.(*sqlir.Binary)
	if !ok {
		return sel
	}
	sub, ok := bin.R.(*sqlir.Subquery)
	if !ok || len(sub.Sel.Items) != 1 {
		return sel
	}
	agg, ok := sub.Sel.Items[0].Expr.(*sqlir.Agg)
	if !ok || len(agg.Args) != 1 {
		return sel
	}
	sel.Where = nil
	sel.OrderBy = []sqlir.OrderItem{{Expr: sqlir.CloneExpr(agg.Args[0]), Desc: agg.Fn == "MAX"}}
	sel.Limit, sel.HasLimit = 1, true
	return sel
}

// mergeCompound folds `A <setop> B` (same shape, different predicate) into a
// single SELECT with the two predicates joined by op — losing set semantics.
func mergeCompound(sel *sqlir.Select, op string) *sqlir.Select {
	if sel.Compound == nil {
		return sel
	}
	right := sel.Compound.Right
	if sel.Where != nil && right.Where != nil {
		sel.Where = &sqlir.Binary{Op: op, L: sel.Where, R: sqlir.CloneExpr(right.Where)}
	}
	sel.Compound = nil
	return sel
}

// styleRewrite switches to an equivalent surface form.
func styleRewrite(sel *sqlir.Select, class spider.CompositionClass, req Request) *sqlir.Select {
	db := req.Task.DB
	switch class {
	case spider.ClassInSub:
		return inSubToJoin(sel, db)
	case spider.ClassJoin:
		return joinToInSub(sel)
	case spider.ClassExclusion:
		return notInToExcept(sel, db)
	}
	return sel
}

// inSubToJoin rewrites `SELECT c FROM t WHERE fk IN (SELECT pk FROM p WHERE
// cond)` into the join form.
func inSubToJoin(sel *sqlir.Select, db *schema.Database) *sqlir.Select {
	in, ok := sel.Where.(*sqlir.In)
	if !ok || in.Sub == nil || in.Negate {
		return sel
	}
	fkCol, ok := in.E.(*sqlir.ColumnRef)
	if !ok {
		return sel
	}
	inner := in.Sub
	pkItem, ok := inner.Items[0].Expr.(*sqlir.ColumnRef)
	if !ok {
		return sel
	}
	out := sqlir.NewSelect()
	for _, it := range sel.Items {
		if c, okc := it.Expr.(*sqlir.ColumnRef); okc {
			out.Items = append(out.Items, sqlir.SelectItem{Expr: &sqlir.ColumnRef{Table: "T1", Column: c.Column}})
		} else {
			out.Items = append(out.Items, it)
		}
	}
	out.From = sqlir.From{
		Base: sqlir.TableRef{Table: sel.From.Base.Table, Alias: "T1"},
		Joins: []sqlir.Join{{
			Table: sqlir.TableRef{Table: inner.From.Base.Table, Alias: "T2"},
			Left:  &sqlir.ColumnRef{Table: "T1", Column: fkCol.Column},
			Right: &sqlir.ColumnRef{Table: "T2", Column: pkItem.Column},
		}},
	}
	if inner.Where != nil {
		out.Where = qualify(sqlir.CloneExpr(inner.Where), "T2")
	}
	return out
}

// joinToInSub rewrites a single equi-join with a parent-side predicate into
// the IN-subquery form.
func joinToInSub(sel *sqlir.Select) *sqlir.Select {
	if len(sel.From.Joins) != 1 || sel.Where == nil {
		return sel
	}
	join := sel.From.Joins[0]
	parentAlias := strings.ToLower(join.Table.Name())
	// The predicate must reference only the parent side.
	onlyParent := true
	sqlir.WalkExprs(&sqlir.Select{Where: sel.Where, Limit: -1}, func(e sqlir.Expr) {
		if c, ok := e.(*sqlir.ColumnRef); ok && c.Table != "" && strings.ToLower(c.Table) != parentAlias {
			onlyParent = false
		}
	})
	if !onlyParent {
		return sel
	}
	inner := sqlir.NewSelect()
	inner.Items = []sqlir.SelectItem{{Expr: &sqlir.ColumnRef{Column: join.Right.Column}}}
	inner.From = sqlir.From{Base: sqlir.TableRef{Table: join.Table.Table}}
	inner.Where = stripQualifiers(sqlir.CloneExpr(sel.Where))
	out := sqlir.NewSelect()
	for _, it := range sel.Items {
		if c, okc := it.Expr.(*sqlir.ColumnRef); okc {
			out.Items = append(out.Items, sqlir.SelectItem{Expr: &sqlir.ColumnRef{Column: c.Column}})
		} else {
			out.Items = append(out.Items, it)
		}
	}
	out.From = sqlir.From{Base: sqlir.TableRef{Table: sel.From.Base.Table}}
	out.Where = &sqlir.In{E: &sqlir.ColumnRef{Column: join.Left.Column}, Sub: inner}
	return out
}

// notInToExcept rewrites `SELECT c FROM p WHERE pk NOT IN (SELECT fk FROM t)`
// into the EXCEPT+join form.
func notInToExcept(sel *sqlir.Select, db *schema.Database) *sqlir.Select {
	in, ok := sel.Where.(*sqlir.In)
	if !ok || in.Sub == nil || !in.Negate {
		return sel
	}
	pkCol, ok := in.E.(*sqlir.ColumnRef)
	if !ok {
		return sel
	}
	fkItem, ok := in.Sub.Items[0].Expr.(*sqlir.ColumnRef)
	if !ok {
		return sel
	}
	projection, ok := sel.Items[0].Expr.(*sqlir.ColumnRef)
	if !ok {
		return sel
	}
	right := sqlir.NewSelect()
	right.Items = []sqlir.SelectItem{{Expr: &sqlir.ColumnRef{Table: "T1", Column: projection.Column}}}
	right.From = sqlir.From{
		Base: sqlir.TableRef{Table: sel.From.Base.Table, Alias: "T1"},
		Joins: []sqlir.Join{{
			Table: sqlir.TableRef{Table: in.Sub.From.Base.Table, Alias: "T2"},
			Left:  &sqlir.ColumnRef{Table: "T1", Column: pkCol.Column},
			Right: &sqlir.ColumnRef{Table: "T2", Column: fkItem.Column},
		}},
	}
	if in.Sub.Where != nil {
		right.Where = qualify(sqlir.CloneExpr(in.Sub.Where), "T2")
	}
	out := sqlir.NewSelect()
	out.Items = sel.Items
	out.From = sqlir.From{Base: sqlir.TableRef{Table: sel.From.Base.Table}}
	out.Compound = &sqlir.Compound{Op: "EXCEPT", Right: right}
	return out
}

// surfaceDrift applies a semantics-preserving reformulation: the LLM knows
// an equivalent way to write the query and, without a demonstration pinning
// the expected form, drifts to it. Both rewrites below are result-identical
// on any database instance (ids are non-null; the corpus's compared columns
// are integer-valued), so they depress EM while leaving EX and TS intact.
func surfaceDrift(sel *sqlir.Select, req Request, rng *rand.Rand) *sqlir.Select {
	// COUNT(*) -> COUNT(id) on single-table queries.
	if len(sel.From.Joins) == 0 && sel.Compound == nil {
		drifted := false
		sqlir.WalkExprs(sel, func(e sqlir.Expr) {
			if drifted {
				return
			}
			if a, ok := e.(*sqlir.Agg); ok && a.Fn == "COUNT" && len(a.Args) == 1 {
				if _, isStar := a.Args[0].(*sqlir.Star); isStar && (rng == nil || rng.Float64() < 0.7) {
					a.Args[0] = &sqlir.ColumnRef{Column: "id"}
					drifted = true
				}
			}
		})
		if drifted {
			return sel
		}
	}
	// Integer comparison boundary shift: x > v  <=>  x >= v+1.
	done := false
	sqlir.WalkExprs(sel, func(e sqlir.Expr) {
		if done {
			return
		}
		b, ok := e.(*sqlir.Binary)
		if !ok {
			return
		}
		l, okL := b.R.(*sqlir.Literal)
		if !okL || l.IsString || l.Num != float64(int64(l.Num)) {
			return
		}
		switch b.Op {
		case ">":
			b.Op, l.Num = ">=", l.Num+1
		case ">=":
			b.Op, l.Num = ">", l.Num-1
		case "<":
			b.Op, l.Num = "<=", l.Num-1
		case "<=":
			b.Op, l.Num = "<", l.Num+1
		default:
			return
		}
		l.Raw = ""
		done = true
	})
	if done {
		return sel
	}
	// String equality -> wildcard-free LIKE (LIKE without % or _ is exact,
	// case-insensitive match in this dialect, so results are unchanged).
	var parent *sqlir.Binary
	findEq := func(root sqlir.Expr) {
		var walk func(sqlir.Expr)
		walk = func(e sqlir.Expr) {
			if parent != nil {
				return
			}
			if b, ok := e.(*sqlir.Binary); ok {
				if b.Op == "AND" || b.Op == "OR" {
					walk(b.L)
					walk(b.R)
					return
				}
				if b.Op == "=" {
					if l, okL := b.R.(*sqlir.Literal); okL && l.IsString &&
						!strings.ContainsAny(l.Str, "%_") {
						parent = b
					}
				}
			}
		}
		walk(root)
	}
	if sel.Where != nil {
		findEq(sel.Where)
	}
	if parent == nil && sel.Compound != nil && sel.Compound.Right.Where != nil {
		findEq(sel.Compound.Right.Where)
	}
	if parent != nil {
		lit := parent.R.(*sqlir.Literal)
		like := &sqlir.Like{E: parent.L, Pattern: &sqlir.Literal{IsString: true, Str: lit.Str}}
		replaceExpr(sel, parent, like)
	}
	return sel
}

// replaceExpr swaps old for new within the select's boolean trees.
func replaceExpr(sel *sqlir.Select, old, repl sqlir.Expr) {
	var sub func(e sqlir.Expr) sqlir.Expr
	sub = func(e sqlir.Expr) sqlir.Expr {
		if e == old {
			return repl
		}
		if b, ok := e.(*sqlir.Binary); ok && (b.Op == "AND" || b.Op == "OR") {
			b.L = sub(b.L)
			b.R = sub(b.R)
		}
		return e
	}
	if sel.Where != nil {
		sel.Where = sub(sel.Where)
	}
	if sel.Compound != nil && sel.Compound.Right.Where != nil {
		sel.Compound.Right.Where = sub(sel.Compound.Right.Where)
	}
}

// stripQualifiers removes table qualifiers from column references.
func stripQualifiers(e sqlir.Expr) sqlir.Expr {
	mutateColRefs(e, func(c *sqlir.ColumnRef) { c.Table = "" })
	return e
}

// qualify sets the table qualifier on all column references.
func qualify(e sqlir.Expr, alias string) sqlir.Expr {
	mutateColRefs(e, func(c *sqlir.ColumnRef) { c.Table = alias })
	return e
}

func mutateColRefs(e sqlir.Expr, fn func(*sqlir.ColumnRef)) {
	tmp := &sqlir.Select{Where: e, Limit: -1}
	sqlir.WalkExprs(tmp, func(x sqlir.Expr) {
		if c, ok := x.(*sqlir.ColumnRef); ok {
			fn(c)
		}
	})
}
