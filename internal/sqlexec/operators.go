package sqlexec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/schema"
)

// This file holds the execution driver: subquery memos, the row-at-a-time
// projection fallback, the ordering/DISTINCT/LIMIT tail and set operations
// (the physical operators live in columnar.go). A compiled plan is
// immutable and holds no per-execution state, so one *selectPlan (and
// therefore one *Stmt) can execute concurrently and against any database
// with a matching schema; everything mutable lives in the per-execution
// execCtx.

// execCtx is the per-execution state: the target database, the dynamic
// nesting depth, and memos for uncorrelated subqueries. The grammar has no
// correlated subqueries, so a nested SELECT's result is invariant across
// outer rows; the memo replaces per-row re-execution.
type execCtx struct {
	db         *schema.Database
	depth      int
	subResults map[*selectPlan]*Result
	subSets    map[*selectPlan]map[string]bool
}

// execSub executes a nested subquery with memoization (successes only;
// errors abort the query on first evaluation anyway).
func (ctx *execCtx) execSub(p *selectPlan) (*Result, error) {
	if res, ok := ctx.subResults[p]; ok {
		return res, nil
	}
	res, err := p.exec(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.subResults == nil {
		ctx.subResults = map[*selectPlan]*Result{}
	}
	ctx.subResults[p] = res
	return res, nil
}

// memberSet returns the hash membership set over the first column of the
// subquery's result — the hash semi-join used by IN (...subquery...). A nil
// set with nil error means a NaN member was found: NaN is not hashable
// under Equal's semantics (see valueKey), so the caller must fall back to
// the linear scan.
func (ctx *execCtx) memberSet(p *selectPlan) (map[string]bool, error) {
	if set, ok := ctx.subSets[p]; ok {
		return set, nil
	}
	res, err := ctx.execSub(p)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool, len(res.Rows))
	for _, r := range res.Rows {
		if len(r) > 0 {
			if isNaNVal(r[0]) {
				set = nil
				break
			}
			set[valueKey(r[0])] = true
		}
	}
	if ctx.subSets == nil {
		ctx.subSets = map[*selectPlan]map[string]bool{}
	}
	ctx.subSets[p] = set
	return set, nil
}

// isNaNVal reports a NaN number. Value.Compare returns 0 when either
// operand is NaN (both orderings are false), so under Equal a NaN "equals"
// every number — not an equivalence relation, hence not hashable. The
// corpus and the SQL grammar never produce NaN (literals are finite,
// division by zero yields NULL), but overflow arithmetic can; every hash
// structure detects it and degrades to the Equal-faithful linear path.
func isNaNVal(v schema.Value) bool {
	return v.Kind == schema.KindNum && math.IsNaN(v.Num)
}

// valueKey encodes a non-NaN value so that key equality coincides exactly
// with Value.Equal: numbers by exact bits (with -0 normalized), strings
// case-folded, NULL distinct from everything but itself. The display form
// String() is NOT suitable here: its 12-digit float rendering can collide
// for values Equal distinguishes.
func valueKey(v schema.Value) string {
	switch v.Kind {
	case schema.KindNum:
		n := v.Num
		if n == 0 {
			n = 0 // fold -0 into +0; Equal treats them as equal
		}
		return "n" + strconv.FormatFloat(n, 'b', -1, 64)
	case schema.KindStr:
		return "s" + strings.ToLower(v.Str)
	default:
		return "\x00"
	}
}

// rowKey encodes one row for grouping, DISTINCT and set-op dedup — the
// same per-row encoding Result.CanonicalRows uses for result comparison,
// so dedup semantics and metric comparison can never desynchronize.
func rowKey(row []schema.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = strings.ToLower(v.String())
	}
	return strings.Join(parts, "\x1f")
}

func evalPreds(ctx *execCtx, preds []rowBool, row []schema.Value) (bool, error) {
	for _, p := range preds {
		ok, err := p(ctx, row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// groupKeyPlan is one resolved GROUP BY key; a resolution failure is raised
// at execution, after the WHERE stage, exactly where the tree-walker
// raised it.
type groupKeyPlan struct {
	idx int
	err error
}

type rowOrderPlan struct {
	key  rowVal
	desc bool
}

type groupOrderPlan struct {
	key  groupVal
	desc bool
}

type compoundPlan struct {
	op    string
	all   bool
	right *selectPlan
}

// selectPlan is the compiled physical plan of one SELECT block.
type selectPlan struct {
	planErr error // deferred lowering error (nested scopes only)

	input colNode
	proj  *colProj  // non-nil: vectorized ungrouped projection
	grp   *colGroup // non-nil: vectorized grouped projection

	star          bool // sole `SELECT *` over an ungrouped relation
	cols          []string
	explicitGroup bool
	implicitAgg   bool
	groupKeys     []groupKeyPlan
	having        groupBool
	rowItems      []rowVal
	groupItems    []groupVal
	rowOrder      []rowOrderPlan
	groupOrder    []groupOrderPlan
	distinct      bool
	hasLimit      bool
	limit         int

	compound *compoundPlan
}

// run executes the plan against a database with a fresh execution context.
func (p *selectPlan) run(db *schema.Database) (*Result, error) {
	return p.exec(&execCtx{db: db})
}

// exec runs the (possibly compound) statement.
func (p *selectPlan) exec(ctx *execCtx) (*Result, error) {
	ctx.depth++
	defer func() { ctx.depth-- }()
	if ctx.depth > maxDepth {
		return nil, errTooDeep
	}
	if p.planErr != nil {
		return nil, p.planErr
	}
	left, err := p.selectOne(ctx)
	if err != nil {
		return nil, err
	}
	if p.compound == nil {
		return left, nil
	}
	right, err := p.compound.right.exec(ctx)
	if err != nil {
		return nil, err
	}
	if len(left.Cols) != len(right.Cols) {
		return nil, fmt.Errorf("sqlexec: set operands have %d vs %d columns", len(left.Cols), len(right.Cols))
	}
	return applySetOp(left, right, p.compound.op, p.compound.all)
}

// selectOne runs the scan→join→filter input, then grouping, projection,
// ordering, DISTINCT and LIMIT, in that order. A projection or grouping
// that did not vectorize runs through this plan's row closures over the
// batch's materialized rows.
func (p *selectPlan) selectOne(ctx *execCtx) (*Result, error) {
	b, err := p.input.exec(ctx)
	if err != nil {
		return nil, err
	}
	switch {
	case p.grp != nil:
		return p.grp.run(p, b)
	case p.proj != nil:
		return p.proj.run(p, b)
	}
	return p.rowsSelect(ctx, b.rows())
}

// rowsSelect is the row-at-a-time grouping + projection stage: the fallback
// for projections and groupings that do not vectorize.
func (p *selectPlan) rowsSelect(ctx *execCtx, rows [][]schema.Value) (*Result, error) {
	var groups [][][]schema.Value
	if p.explicitGroup {
		idx := make([]int, len(p.groupKeys))
		for i, gk := range p.groupKeys {
			if gk.err != nil {
				return nil, gk.err
			}
			idx[i] = gk.idx
		}
		var order []string
		byKey := map[string][][]schema.Value{}
		keyCells := make([]schema.Value, len(idx))
		for _, row := range rows {
			for i, j := range idx {
				keyCells[i] = row[j]
			}
			k := rowKey(keyCells)
			if _, ok := byKey[k]; !ok {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], row)
		}
		for _, k := range order {
			groups = append(groups, byKey[k])
		}
		if p.having != nil {
			kept := groups[:0]
			for _, g := range groups {
				ok, err := p.having(ctx, g)
				if err != nil {
					return nil, err
				}
				if ok {
					kept = append(kept, g)
				}
			}
			groups = kept
		}
	} else if p.implicitAgg {
		groups = [][][]schema.Value{rows}
	}

	var cells, keys [][]schema.Value

	switch {
	case p.star:
		for _, row := range rows {
			var ks []schema.Value
			for _, o := range p.rowOrder {
				v, err := o.key(ctx, row)
				if err != nil {
					return nil, err
				}
				ks = append(ks, v)
			}
			cells = append(cells, row)
			keys = append(keys, ks)
		}
	case groups != nil:
		for _, g := range groups {
			var cs []schema.Value
			for _, fn := range p.groupItems {
				v, err := fn(ctx, g)
				if err != nil {
					return nil, err
				}
				cs = append(cs, v)
			}
			var ks []schema.Value
			for _, o := range p.groupOrder {
				v, err := o.key(ctx, g)
				if err != nil {
					return nil, err
				}
				ks = append(ks, v)
			}
			cells = append(cells, cs)
			keys = append(keys, ks)
		}
	default:
		for _, row := range rows {
			var cs []schema.Value
			for _, fn := range p.rowItems {
				v, err := fn(ctx, row)
				if err != nil {
					return nil, err
				}
				cs = append(cs, v)
			}
			var ks []schema.Value
			for _, o := range p.rowOrder {
				v, err := o.key(ctx, row)
				if err != nil {
					return nil, err
				}
				ks = append(ks, v)
			}
			cells = append(cells, cs)
			keys = append(keys, ks)
		}
	}
	return p.finish(cells, keys)
}

// finish is the ordering + DISTINCT + LIMIT tail shared by the row and
// columnar projection stages: cells are the projected rows, keys the
// parallel ORDER BY key rows (ignored unless the plan orders).
func (p *selectPlan) finish(cells, keys [][]schema.Value) (*Result, error) {
	out := &Result{Cols: p.cols}
	desc := make([]bool, 0, len(p.rowOrder)+len(p.groupOrder))
	for _, o := range p.rowOrder {
		desc = append(desc, o.desc)
	}
	for _, o := range p.groupOrder {
		desc = append(desc, o.desc)
	}
	if len(desc) > 0 {
		idx := make([]int, len(cells))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := keys[idx[a]], keys[idx[b]]
			for k, d := range desc {
				c := ka[k].Compare(kb[k])
				if d {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		sorted := make([][]schema.Value, len(cells))
		for i, j := range idx {
			sorted[i] = cells[j]
		}
		cells = sorted
		out.Ordered = true
	}
	out.Rows = cells
	if p.distinct {
		seen := map[string]bool{}
		dedup := out.Rows[:0:0]
		for _, r := range out.Rows {
			k := rowKey(r)
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, r)
			}
		}
		out.Rows = dedup
	}
	if p.hasLimit && p.limit >= 0 && len(out.Rows) > p.limit {
		out.Rows = out.Rows[:p.limit]
	}
	return out, nil
}

func applySetOp(left, right *Result, op string, all bool) (*Result, error) {
	key := rowKey
	out := &Result{Cols: left.Cols}
	switch op {
	case "UNION":
		if all {
			out.Rows = append(append([][]schema.Value{}, left.Rows...), right.Rows...)
			return out, nil
		}
		seen := map[string]bool{}
		for _, rs := range [][][]schema.Value{left.Rows, right.Rows} {
			for _, r := range rs {
				k := key(r)
				if !seen[k] {
					seen[k] = true
					out.Rows = append(out.Rows, r)
				}
			}
		}
	case "INTERSECT":
		inRight := map[string]bool{}
		for _, r := range right.Rows {
			inRight[key(r)] = true
		}
		seen := map[string]bool{}
		for _, r := range left.Rows {
			k := key(r)
			if inRight[k] && !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, r)
			}
		}
	case "EXCEPT":
		inRight := map[string]bool{}
		for _, r := range right.Rows {
			inRight[key(r)] = true
		}
		seen := map[string]bool{}
		for _, r := range left.Rows {
			k := key(r)
			if !inRight[k] && !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, r)
			}
		}
	default:
		return nil, fmt.Errorf("sqlexec: unknown set op %q", op)
	}
	// Set operations produce deduplicated, order-insignificant output; sort
	// canonically for determinism.
	sortRows(out.Rows)
	return out, nil
}
