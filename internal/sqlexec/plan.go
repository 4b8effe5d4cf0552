package sqlexec

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlir"
)

// This file is the logical planner: it lowers a sqlir.Select into a logical
// plan (table scans, join steps, filter conjuncts and projection metadata
// resolved against the full binding list) and then drives optimization
// (optimize.go) and compilation into the physical operator tree
// (columnar.go, with eval.go's row closures as its fallback).
//
// Error discipline: the previous tree-walking executor resolved names and
// surfaced errors lazily — an unknown column in WHERE only errored once at
// least one row was evaluated, a subquery's unknown table only errored when
// the subquery first ran, and a compound right-hand side only errored after
// the left side executed. The adaption module's repair loop and the
// differential oracle both depend on exactly that behaviour, so the planner
// preserves it: only the top-level FROM clause (base tables and ON-column
// resolution) errors at plan time, matching the old executor's eager
// buildFrom; every other resolution failure is recorded in the plan and
// raised at the same execution point the tree-walker raised it.

// PlanOptions selects physical execution strategies. The zero value enables
// every optimization; tests and benchmarks use the knobs to force the naive
// paths through the differential oracle.
type PlanOptions struct {
	// ForceNestedLoop executes every join as a nested loop, even hashable
	// equi-joins.
	ForceNestedLoop bool
	// NoPushdown disables predicate pushdown into scans.
	NoPushdown bool
	// NoHashSets disables hash membership sets for IN (linear scan instead).
	NoHashSets bool
	// NoFold disables constant folding.
	NoFold bool
}

// Unoptimized returns options that disable every optimizer rule — the
// physical plan degenerates to nested-loop joins over unfiltered scans with
// per-row linear IN membership, mirroring the reference evaluator's shape.
func Unoptimized() PlanOptions {
	return PlanOptions{ForceNestedLoop: true, NoPushdown: true, NoHashSets: true, NoFold: true}
}

var errTooDeep = errors.New("sqlexec: query nesting too deep")

var errStarSentinel = errors.New("sqlexec: SELECT * mixed with other items is unsupported")

// planCtx carries the planning inputs shared by every nesting level.
type planCtx struct {
	db   *schema.Database
	opts PlanOptions
}

// logScan is one FROM entry (base table or join arm).
type logScan struct {
	tableName string // as written in the query, for error messages
	qual      string // lower-cased alias-or-table-name
	start     int    // first index in the full binding list
	ncols     int
}

// sideIdx locates a join ON column: a full binding index plus which side of
// the join step it lives on.
type sideIdx struct {
	right bool
	idx   int // full binding index
}

// logJoin is one join step: the accumulated left relation joined with the
// next scan.
type logJoin struct {
	li, ri sideIdx // ON columns in written order
	// normalized is true when the ON columns sit on opposite sides; the
	// keys are then (leftKeyFull from the left relation, rightKeyFull from
	// the scan) and the join is hashable.
	normalized   bool
	leftKeyFull  int
	rightKeyFull int
}

// logSel is the analyzed logical form of one SELECT block.
type logSel struct {
	sel      *sqlir.Select
	scans    []*logScan
	joins    []*logJoin
	bindings []binding // full post-join binding list

	// Shape analysis shared by the optimizer and the compiler (computed
	// once so the two can never disagree).
	hasAgg   bool // an aggregate appears in the items or ORDER BY
	starSole bool // the select list is exactly `*`
}

// lower resolves the FROM clause into scans, joins and the full binding
// list. Its errors are eager for the top-level select (matching the old
// executor's buildFrom) and deferred by nested callers.
func (pc *planCtx) lower(sel *sqlir.Select) (*logSel, error) {
	ls := &logSel{sel: sel}
	for _, it := range sel.Items {
		if exprHasAgg(it.Expr) {
			ls.hasAgg = true
		}
	}
	for _, o := range sel.OrderBy {
		if exprHasAgg(o.Expr) {
			ls.hasAgg = true
		}
	}
	ls.starSole = len(sel.Items) == 1 && isStar(sel.Items[0].Expr)
	add := func(tr sqlir.TableRef) error {
		t := pc.db.Table(tr.Table)
		if t == nil {
			return fmt.Errorf("%w: %s", ErrUnknownTable, tr.Table)
		}
		q := strings.ToLower(tr.Name())
		sc := &logScan{tableName: tr.Table, qual: q, start: len(ls.bindings), ncols: len(t.Columns)}
		for _, c := range t.Columns {
			ls.bindings = append(ls.bindings, binding{
				qualifier: q,
				table:     strings.ToLower(t.Name),
				column:    strings.ToLower(c.Name),
				typ:       c.Type,
			})
		}
		ls.scans = append(ls.scans, sc)
		return nil
	}
	if err := add(sel.From.Base); err != nil {
		return nil, err
	}
	for _, j := range sel.From.Joins {
		left := ls.bindings
		rstart := len(ls.bindings)
		if err := add(j.Table); err != nil {
			return nil, err
		}
		right := ls.bindings[rstart:]
		li, err := resolveColIn(j.Left, left, right, rstart)
		if err != nil {
			return nil, err
		}
		ri, err := resolveColIn(j.Right, left, right, rstart)
		if err != nil {
			return nil, err
		}
		lj := &logJoin{li: li, ri: ri}
		lk, rk := li, ri
		if lk.right && !rk.right {
			lk, rk = rk, lk
		}
		if !lk.right && rk.right {
			lj.normalized = true
			lj.leftKeyFull = lk.idx
			lj.rightKeyFull = rk.idx
		}
		ls.joins = append(ls.joins, lj)
	}
	return ls, nil
}

// resolveColIn locates an ON column on either side of a join step: the left
// (accumulated) side is tried first, ambiguity there is an error, and the
// right scan is the fallback. Returned indexes are full binding indexes.
func resolveColIn(c *sqlir.ColumnRef, left, right []binding, rstart int) (sideIdx, error) {
	if i, err := resolveCol(c, left); err == nil {
		return sideIdx{false, i}, nil
	} else if errors.Is(err, ErrAmbiguousColumn) {
		return sideIdx{}, err
	}
	i, err := resolveCol(c, right)
	if err != nil {
		return sideIdx{}, err
	}
	return sideIdx{true, rstart + i}, nil
}

// planTop plans the top-level statement: FROM-clause lowering errors are
// returned eagerly (matching the previous executor, which built the working
// relation before anything else).
func planTop(db *schema.Database, sel *sqlir.Select, opts PlanOptions) (*selectPlan, error) {
	pc := &planCtx{db: db, opts: opts}
	return pc.planSelect(sel, 1)
}

// planSelect plans one SELECT block at the given static nesting depth.
func (pc *planCtx) planSelect(sel *sqlir.Select, depth int) (*selectPlan, error) {
	if depth > maxDepth {
		// The runtime depth guard rejects execution at this depth; deferring
		// keeps never-executed branches silent, like the lazy tree-walker.
		return &selectPlan{planErr: errTooDeep}, nil
	}
	ls, err := pc.lower(sel)
	if err != nil {
		return nil, err
	}
	opt := pc.optimize(ls)
	return pc.compile(ls, opt, depth)
}

// nested plans a sub-select (subquery or compound right side), converting
// plan-time errors into exec-time errors so they surface exactly where the
// lazy executor surfaced them.
func (pc *planCtx) nested(sel *sqlir.Select, depth int) *selectPlan {
	p, err := pc.planSelect(sel, depth)
	if err != nil {
		return &selectPlan{planErr: err}
	}
	return p
}

// compile turns the optimized logical plan into the physical selectPlan.
func (pc *planCtx) compile(ls *logSel, opt *optSel, depth int) (*selectPlan, error) {
	sel := ls.sel

	// Physical FROM chain: scans, joins with projection pruning, residual
	// filter.
	scans := make([]*colScanNode, len(ls.scans))
	for i, sc := range ls.scans {
		scans[i] = &colScanNode{table: sc.tableName}
	}
	var node colNode = scans[0]
	for j, lj := range ls.joins {
		sc := ls.scans[j+1]
		inLayout := opt.layouts[j]    // left input layout
		outLayout := opt.layouts[j+1] // this join's output layout
		outSet := make(map[int]bool, len(outLayout))
		for _, fi := range outLayout {
			outSet[fi] = true
		}
		jn := &colJoinNode{left: node, right: scans[j+1]}
		for pos, fi := range inLayout {
			if outSet[fi] {
				jn.keepL = append(jn.keepL, pos)
			}
		}
		for fi := sc.start; fi < sc.start+sc.ncols; fi++ {
			if outSet[fi] {
				jn.keepR = append(jn.keepR, fi-sc.start)
			}
		}
		if lj.normalized {
			jn.lKeyIdx = layoutPos(inLayout, lj.leftKeyFull)
			jn.rKeyIdx = lj.rightKeyFull - sc.start
			jn.hash = !pc.opts.ForceNestedLoop
		} else {
			// Degenerate ON clause (both columns on one side): filtered
			// nested loop, keys in written order.
			toCell := func(s sideIdx) cellRef {
				if s.right {
					return cellRef{right: true, idx: s.idx - sc.start}
				}
				return cellRef{right: false, idx: layoutPos(inLayout, s.idx)}
			}
			jn.lKey = toCell(lj.li)
			jn.rKey = toCell(lj.ri)
			jn.degenerate = true
		}
		node = jn
	}

	// Expression compiler against the final materialized layout.
	comp := &compiler{pc: pc, bindings: ls.bindings, colMap: opt.finalMap, depth: depth}
	fcc := &colComp{bindings: ls.bindings, colMap: opt.finalMap}

	// Pushed predicates compile against raw scan rows; pushdown only admits
	// error-free conjuncts, so each also gets a vector kernel when its shape
	// allows (else the row closure runs lane at a time).
	for ci, ex := range opt.conjuncts {
		target := opt.pushTo[ci]
		if target < 0 {
			continue
		}
		localMap := scanLocalMap(ls.bindings, ls.scans[target])
		scanComp := &compiler{pc: pc, bindings: ls.bindings, colMap: localMap, depth: depth}
		fn, _ := scanComp.boolFn(ex)
		scc := &colComp{bindings: ls.bindings, colMap: localMap}
		scans[target].preds = append(scans[target].preds, colPredPlan{k: scc.pred(ex), r: fn})
	}
	var residual []rowBool
	var residualExs []sqlir.Expr
	for ci, ex := range opt.conjuncts {
		if opt.pushTo[ci] >= 0 {
			continue
		}
		fn, _ := comp.boolFn(ex)
		residual = append(residual, fn)
		residualExs = append(residualExs, ex)
	}
	if len(residual) > 0 {
		// Vectorize only the prefix before the first error-capable
		// conjunct; from there on one fused row-major loop evaluates each
		// row's conjuncts left to right, so the first error a row raises
		// surfaces first (two error-capable conjuncts evaluated column at a
		// time could error in the wrong order).
		split := 0
		for split < len(residualExs) && errorFreeBool(residualExs[split], ls.bindings) {
			split++
		}
		cf := &colFilterNode{child: node, fused: residual[split:]}
		for i := 0; i < split; i++ {
			cf.vecs = append(cf.vecs, colPredPlan{k: fcc.pred(residualExs[i]), r: residual[i]})
		}
		node = cf
	}

	p := &selectPlan{input: node}

	p.explicitGroup = len(sel.GroupBy) > 0
	p.implicitAgg = !p.explicitGroup && ls.hasAgg
	grouped := p.explicitGroup || p.implicitAgg

	if p.explicitGroup {
		for _, g := range sel.GroupBy {
			fi, err := resolveCol(g, ls.bindings)
			gk := groupKeyPlan{err: err}
			if err == nil {
				gk.idx = opt.finalMap[fi]
			}
			p.groupKeys = append(p.groupKeys, gk)
		}
		if sel.Having != nil {
			p.having = comp.groupBoolFn(sel.Having)
		}
	}

	if ls.starSole && !grouped {
		p.star = true
		for _, b := range ls.bindings {
			p.cols = append(p.cols, b.column)
		}
		for _, o := range sel.OrderBy {
			fn, _ := comp.valueFn(o.Expr)
			p.rowOrder = append(p.rowOrder, rowOrderPlan{key: fn, desc: o.Desc})
		}
	} else {
		for _, it := range sel.Items {
			p.cols = append(p.cols, itemName(it))
		}
		if grouped {
			for _, it := range sel.Items {
				if isStar(it.Expr) {
					p.groupItems = append(p.groupItems, groupErrFn(errStarSentinel))
					continue
				}
				p.groupItems = append(p.groupItems, comp.groupValueFn(it.Expr))
			}
			for _, o := range sel.OrderBy {
				p.groupOrder = append(p.groupOrder, groupOrderPlan{key: comp.groupValueFn(o.Expr), desc: o.Desc})
			}
		} else {
			for _, it := range sel.Items {
				if isStar(it.Expr) {
					p.rowItems = append(p.rowItems, rowErrFn(errStarSentinel))
					continue
				}
				fn, _ := comp.valueFn(it.Expr)
				p.rowItems = append(p.rowItems, fn)
			}
			for _, o := range sel.OrderBy {
				fn, _ := comp.valueFn(o.Expr)
				p.rowOrder = append(p.rowOrder, rowOrderPlan{key: fn, desc: o.Desc})
			}
		}
	}

	p.distinct = sel.Distinct
	p.hasLimit = sel.HasLimit
	p.limit = sel.Limit

	if grouped {
		p.grp = buildColGroup(sel, p, fcc)
	} else {
		p.proj = buildColProj(sel, p.star, len(ls.bindings), fcc)
	}

	if sel.Compound != nil {
		p.compound = &compoundPlan{
			op:    sel.Compound.Op,
			all:   sel.Compound.All,
			right: pc.nested(sel.Compound.Right, depth+1),
		}
	}
	return p, nil
}

// layoutPos returns the position of full index fi within a layout. The
// optimizer guarantees presence for every index it hands the compiler.
func layoutPos(layout []int, fi int) int {
	for pos, v := range layout {
		if v == fi {
			return pos
		}
	}
	return -1
}

// scanLocalMap maps full binding indexes to scan-local row positions.
func scanLocalMap(bindings []binding, sc *logScan) []int {
	m := make([]int, len(bindings))
	for i := range m {
		if i >= sc.start && i < sc.start+sc.ncols {
			m[i] = i - sc.start
		} else {
			m[i] = -1
		}
	}
	return m
}
