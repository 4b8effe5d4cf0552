package sqlexec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlir"
)

// This file is the physical execution pipeline, batch at a time: scan, join
// and filter operators over colBatch (vector.go) driving the compiled
// kernels (kernels.go), plus vectorized projection and grouping. It falls
// back to the compiled row closures (eval.go) wherever an expression is not
// provably error-free.
//
// Error-ordering contract: rows are visited in row order, and each row's
// conjuncts (and projection items) are evaluated left to right, so the first
// error a row raises surfaces first. Column-at-a-time evaluation of two
// error-capable expressions could surface a different first error, so the
// pipeline only vectorizes the prefix of conjuncts before the first
// error-capable one (mirroring the pushdown rule in optimize.go) and runs
// everything from that point on as one fused lane-at-a-time loop over the
// original row closures. Projections are all-or-nothing for the same reason:
// if any item or ORDER BY key can error, the whole projection falls back to
// row-major closure evaluation.

// ---- kernel expression compiler ----

// colComp compiles vector-safe expressions into kernel plans against a
// layout map. Callers gate on errorFreeBool/errorFreeValue; a nil return
// means "not vectorizable here" and the caller keeps the row closure.
type colComp struct {
	bindings []binding
	colMap   []int // full binding index -> batch column position
}

func (cc *colComp) val(ex sqlir.Expr) kval {
	switch v := ex.(type) {
	case *sqlir.ColumnRef:
		fi, err := resolveCol(v, cc.bindings)
		if err != nil {
			return nil
		}
		pos := cc.colMap[fi]
		if pos < 0 {
			return nil
		}
		return kvCol{col: pos}
	case *sqlir.Literal:
		if v.IsString {
			return kvConst{v: schema.S(v.Str)}
		}
		return kvConst{v: schema.N(v.Num)}
	case *sqlir.Binary:
		switch v.Op {
		case "+", "-", "*", "/":
			return nil // arithmetic can error on non-numeric data
		}
		if p := cc.pred(ex); p != nil {
			return kvBool{p: p}
		}
		return nil
	case *sqlir.Not, *sqlir.Between, *sqlir.Like, *sqlir.In, *sqlir.IsNull:
		if p := cc.pred(ex); p != nil {
			return kvBool{p: p}
		}
		return nil
	default:
		return nil
	}
}

func (cc *colComp) pred(ex sqlir.Expr) kpred {
	switch v := ex.(type) {
	case *sqlir.Literal:
		if v.IsString {
			return kpConst{b: v.Str != ""}
		}
		return kpConst{b: v.Num != 0}
	case *sqlir.Binary:
		switch v.Op {
		case "AND", "OR":
			l, r := cc.pred(v.L), cc.pred(v.R)
			if l == nil || r == nil {
				return nil
			}
			if v.Op == "AND" {
				return kpAnd{l: l, r: r}
			}
			return kpOr{l: l, r: r}
		case "=", "!=", "<", "<=", ">", ">=":
			l, r := cc.val(v.L), cc.val(v.R)
			if l == nil || r == nil {
				return nil
			}
			return kpCmp{op: v.Op, l: l, r: r}
		}
		return nil
	case *sqlir.Not:
		e := cc.pred(v.E)
		if e == nil {
			return nil
		}
		return kpNot{e: e}
	case *sqlir.Between:
		x, lo, hi := cc.val(v.E), cc.val(v.Lo), cc.val(v.Hi)
		if x == nil || lo == nil || hi == nil {
			return nil
		}
		return kpBetween{x: x, lo: lo, hi: hi, neg: v.Negate}
	case *sqlir.Like:
		x, p := cc.val(v.E), cc.val(v.Pattern)
		if x == nil || p == nil {
			return nil
		}
		return kpLike{x: x, pat: p, neg: v.Negate}
	case *sqlir.In:
		if v.Sub != nil {
			return nil // subquery execution can error
		}
		x := cc.val(v.E)
		if x == nil {
			return nil
		}
		ms := make([]kval, len(v.List))
		for i, it := range v.List {
			m := cc.val(it)
			if m == nil {
				return nil
			}
			ms[i] = m
		}
		return kpIn{x: x, members: ms, neg: v.Negate}
	case *sqlir.IsNull:
		x := cc.val(v.E)
		if x == nil {
			return nil
		}
		return kpIsNull{x: x, neg: v.Negate}
	default:
		return nil
	}
}

// gval mirrors groupValueFn's dispatch over the vector-safe grammar; gbool
// mirrors groupBoolFn. A nil return falls the whole grouped projection back
// to the row closures (all-or-nothing, like the ungrouped projection).
func (cc *colComp) gvalFor(ex sqlir.Expr) gval {
	switch v := ex.(type) {
	case *sqlir.Agg:
		return cc.gaggFor(v)
	case *sqlir.ColumnRef:
		k := cc.val(v)
		if k == nil {
			return nil
		}
		return gvFirstK{k: k}
	case *sqlir.Literal:
		if v.IsString {
			return gvConst{v: schema.S(v.Str)}
		}
		return gvConst{v: schema.N(v.Num)}
	case *sqlir.Binary:
		switch v.Op {
		case "+", "-", "*", "/":
			return nil // arithmetic can error
		}
		b := cc.gboolFor(ex)
		if b == nil {
			return nil
		}
		return gvFromBool{b: b}
	default:
		// groupValueFn's default branch: row-context evaluation on the
		// group's first row, NULL for empty groups. Subquery/Exists/Star
		// fail the error-free test and fall back.
		if !errorFreeValue(ex, cc.bindings) {
			return nil
		}
		k := cc.val(ex)
		if k == nil {
			return nil
		}
		return gvFirstK{k: k}
	}
}

func (cc *colComp) gboolFor(ex sqlir.Expr) gbool {
	switch v := ex.(type) {
	case *sqlir.Binary:
		switch v.Op {
		case "AND", "OR":
			l, r := cc.gboolFor(v.L), cc.gboolFor(v.R)
			if l == nil || r == nil {
				return nil
			}
			if v.Op == "AND" {
				return gbAnd{l: l, r: r}
			}
			return gbOr{l: l, r: r}
		case "=", "!=", "<", "<=", ">", ">=":
			l, r := cc.gvalFor(v.L), cc.gvalFor(v.R)
			if l == nil || r == nil {
				return nil
			}
			return gbCmp{op: v.Op, l: l, r: r}
		}
		return nil // unexpected op in HAVING errors; keep the closure
	case *sqlir.Not:
		e := cc.gboolFor(v.E)
		if e == nil {
			return nil
		}
		return gbNot{e: e}
	default:
		// groupBoolFn's default branch: row predicate on the first row,
		// false for empty groups.
		if !errorFreeBool(ex, cc.bindings) {
			return nil
		}
		p := cc.pred(ex)
		if p == nil {
			return nil
		}
		return gbRow{p: p}
	}
}

func (cc *colComp) gaggFor(a *sqlir.Agg) gval {
	if !sqlir.AggFuncs[a.Fn] || len(a.Args) != 1 {
		return nil // aggFn raises; keep the error closure
	}
	if _, isStar := a.Args[0].(*sqlir.Star); isStar {
		if a.Fn != "COUNT" {
			return nil
		}
		return gvAgg{fn: "COUNT", star: true}
	}
	if !errorFreeValue(a.Args[0], cc.bindings) {
		return nil
	}
	k := cc.val(a.Args[0])
	if k == nil {
		return nil
	}
	return gvAgg{fn: a.Fn, distinct: a.Distinct, arg: k}
}

// ---- pipeline operators ----

// colNode produces the working relation as a batch.
type colNode interface {
	exec(ctx *execCtx) (*colBatch, error)
}

// colPredPlan is one error-free predicate: a kernel when the expression
// vectorizes, otherwise the compiled row closure run lane at a time.
type colPredPlan struct {
	k kpred
	r rowBool
}

// colScanNode reads a table through the column cache and applies pushed-down
// predicates as selection-vector refinements.
type colScanNode struct {
	table string
	preds []colPredPlan
}

func (s *colScanNode) exec(ctx *execCtx) (*colBatch, error) {
	t := ctx.db.Table(s.table)
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTable, s.table)
	}
	ct := columnsOf(t)
	b := &colBatch{cols: ct.cols, n: ct.nrows}
	for _, p := range s.preds {
		if p.k != nil {
			b.refine(p.k.bindPred(b))
			continue
		}
		// Row-closure fallback over the raw shared rows (pushed predicates
		// are error-free; the error return is plumbing).
		rows := t.Rows
		if err := b.refineErr(func(i int32) (bool, error) { return p.r(ctx, rows[i]) }); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// refine keeps the lanes the predicate accepts.
func (b *colBatch) refine(f lanePred) {
	if b.sel == nil {
		sel := make([]int32, 0, b.n)
		for i := int32(0); i < int32(b.n); i++ {
			if f(i) {
				sel = append(sel, i)
			}
		}
		b.sel = sel
		return
	}
	kept := b.sel[:0]
	for _, i := range b.sel {
		if f(i) {
			kept = append(kept, i)
		}
	}
	b.sel = kept
}

func (b *colBatch) refineErr(f func(int32) (bool, error)) error {
	if b.sel == nil {
		sel := make([]int32, 0, b.n)
		for i := int32(0); i < int32(b.n); i++ {
			ok, err := f(i)
			if err != nil {
				return err
			}
			if ok {
				sel = append(sel, i)
			}
		}
		b.sel = sel
		return nil
	}
	kept := b.sel[:0]
	for _, i := range b.sel {
		ok, err := f(i)
		if err != nil {
			return err
		}
		if ok {
			kept = append(kept, i)
		}
	}
	b.sel = kept
	return nil
}

// cellRef addresses one degenerate-join key cell: a column of the left batch
// or of the right batch.
type cellRef struct {
	right bool
	idx   int
}

// colJoinNode joins the left input with a base-table scan. Normalized
// equi-joins (keys on opposite sides) hash-build over the right side with
// chained ordinals unless the plan forces a nested loop; degenerate ON
// clauses (both key columns on one side) run the filtered nested loop. Every
// strategy emits in the same order — left rows in order, matches in
// right-relation order — so results are byte-identical across join paths.
// A NaN build key degrades the hash join to the nested loop. Output columns
// (the kept ones only: projection pruning) are gathered once per column
// instead of once per row.
type colJoinNode struct {
	left         colNode
	right        *colScanNode
	lKey, rKey   cellRef // degenerate form: positions into (left, right) batch columns
	lKeyIdx      int     // normalized: left batch column
	rKeyIdx      int     // normalized: right batch column
	hash         bool
	degenerate   bool
	keepL, keepR []int
}

func (j *colJoinNode) exec(ctx *execCtx) (*colBatch, error) {
	lb, err := j.left.exec(ctx)
	if err != nil {
		return nil, err
	}
	rb, err := j.right.exec(ctx)
	if err != nil {
		return nil, err
	}
	// Foreign-key equi-joins emit about one pair per left row; presizing to
	// that avoids the append-growth copies without overshooting much.
	lidx := make([]int32, 0, lb.len())
	ridx := make([]int32, 0, lb.len())
	emit := func(l, r int32) {
		lidx = append(lidx, l)
		ridx = append(ridx, r)
	}
	switch {
	case j.degenerate:
		j.execDegenerate(lb, rb, emit)
	case j.hash && !buildHasNaN(rb, j.rKeyIdx):
		j.execHash(lb, rb, emit)
	default:
		j.execNested(lb, rb, emit)
	}
	cols := make([]*vec, 0, len(j.keepL)+len(j.keepR))
	for _, pos := range j.keepL {
		cols = append(cols, gatherVec(lb.cols[pos], lidx))
	}
	for _, pos := range j.keepR {
		cols = append(cols, gatherVec(rb.cols[pos], ridx))
	}
	return &colBatch{cols: cols, n: len(lidx)}, nil
}

func (j *colJoinNode) execDegenerate(lb, rb *colBatch, emit func(l, r int32)) {
	pick := func(c cellRef, ll, rl int32) schema.Value {
		if c.right {
			return rb.cols[c.idx].value(rl)
		}
		return lb.cols[c.idx].value(ll)
	}
	for li, ln := 0, lb.len(); li < ln; li++ {
		llane := lb.lane(li)
		for ri, rn := 0, rb.len(); ri < rn; ri++ {
			rlane := rb.lane(ri)
			lv := pick(j.lKey, llane, rlane)
			if !lv.IsNull() && lv.Equal(pick(j.rKey, llane, rlane)) {
				emit(llane, rlane)
			}
		}
	}
}

// buildHasNaN reports a non-null NaN among the build keys — the one value
// hash lookup cannot express (Equal treats NaN as equal to every number), so
// the whole join degrades to the nested loop.
func buildHasNaN(rb *colBatch, key int) bool {
	v := rb.cols[key]
	for i, n := 0, rb.len(); i < n; i++ {
		lane := rb.lane(i)
		switch v.kind {
		case vecNum:
			if !v.isNull(lane) && math.IsNaN(v.nums[lane]) {
				return true
			}
		case vecAny:
			if cv := v.vals[lane]; cv.Kind == schema.KindNum && math.IsNaN(cv.Num) {
				return true
			}
		}
	}
	return false
}

// f64Hash is an open-addressed hash table from float64 join keys to chain
// heads (right-side ordinal+1; 0 = empty slot, valid because heads are
// always >= 1). Go's built-in map spends most of a probe in generic hashing
// machinery; a flat table with a multiplicative hash and linear probing cuts
// a key lookup to a few instructions. -0 normalizes to +0 before hashing so
// bit-different keys that compare Equal land in one slot; NaN never enters
// (the caller degrades NaN builds to the nested loop and special-cases NaN
// probes).
type f64Hash struct {
	mask  uint32
	shift uint8 // 64 - log2(len(slot)); the index is the product's TOP bits
	keys  []float64
	slot  []int32
}

func newF64Hash(n int) *f64Hash {
	sz, lg := uint32(8), uint8(3)
	for int(sz) < 2*n {
		sz <<= 1
		lg++
	}
	return &f64Hash{mask: sz - 1, shift: 64 - lg, keys: make([]float64, sz), slot: make([]int32, sz)}
}

// find returns the slot holding x, or the empty slot where x belongs. The
// index takes the high bits of the multiplicative hash — Fibonacci hashing's
// mixing concentrates entropy there, and the low/middle bits alias badly for
// sequential integer-valued keys under linear probing.
func (h *f64Hash) find(x float64) uint32 {
	if x == 0 {
		x = 0 // fold -0 into +0 (they are Equal and == but hash differently)
	}
	i := uint32((math.Float64bits(x) * 0x9E3779B97F4A7C15) >> h.shift)
	for h.slot[i] != 0 {
		if h.keys[i] == x {
			return i
		}
		i = (i + 1) & h.mask
	}
	return i
}

func (j *colJoinNode) execHash(lb, rb *colBatch, emit func(l, r int32)) {
	rv := rb.cols[j.rKeyIdx]
	rn := rb.len()
	// Chained build over right ordinals: slots hold ordinal+1, next links to
	// the following ordinal with the same key. Building in reverse makes
	// each chain walk emit in right-relation order.
	next := make([]int32, rn)
	var numHead *f64Hash
	var strHead map[string]int32
	for ri := rn - 1; ri >= 0; ri-- {
		lane := rb.lane(ri)
		cv := rv.value(lane)
		switch cv.Kind {
		case schema.KindNum:
			if numHead == nil {
				numHead = newF64Hash(rn)
			}
			s := numHead.find(cv.Num)
			if numHead.slot[s] == 0 {
				numHead.keys[s] = cv.Num
			}
			next[ri] = numHead.slot[s]
			numHead.slot[s] = int32(ri) + 1
		case schema.KindStr:
			if strHead == nil {
				strHead = make(map[string]int32, rn)
			}
			k := lowerCheap(cv.Str)
			next[ri] = strHead[k]
			strHead[k] = int32(ri) + 1
		}
	}
	nanProbe := func(llane int32) {
		// NaN equals every number under Equal; scan the right side in order
		// for its numeric non-null lanes.
		for ri := 0; ri < rn; ri++ {
			rlane := rb.lane(ri)
			if rv.value(rlane).Kind == schema.KindNum {
				emit(llane, rlane)
			}
		}
	}
	lv := lb.cols[j.lKeyIdx]
	if lv.kind == vecNum {
		// Typed probe loop: no per-lane boxing.
		nums := lv.nums
		probe := func(llane int32) {
			x := nums[llane]
			if math.IsNaN(x) {
				nanProbe(llane)
				return
			}
			for ord := numHead.slot[numHead.find(x)]; ord != 0; ord = next[ord-1] {
				emit(llane, rb.lane(int(ord-1)))
			}
		}
		if numHead == nil {
			return // no numeric build keys: numeric probes cannot match
		}
		if lb.sel == nil && lv.null == nil {
			for i := int32(0); i < int32(lb.n); i++ {
				probe(i)
			}
			return
		}
		for li, ln := 0, lb.len(); li < ln; li++ {
			llane := lb.lane(li)
			if !lv.isNull(llane) {
				probe(llane)
			}
		}
		return
	}
	for li, ln := 0, lb.len(); li < ln; li++ {
		llane := lb.lane(li)
		cv := lv.value(llane)
		switch cv.Kind {
		case schema.KindNum:
			if math.IsNaN(cv.Num) {
				nanProbe(llane)
				continue
			}
			if numHead == nil {
				continue
			}
			for ord := numHead.slot[numHead.find(cv.Num)]; ord != 0; ord = next[ord-1] {
				emit(llane, rb.lane(int(ord-1)))
			}
		case schema.KindStr:
			for ord := strHead[lowerCheap(cv.Str)]; ord != 0; ord = next[ord-1] {
				emit(llane, rb.lane(int(ord-1)))
			}
		}
	}
}

func (j *colJoinNode) execNested(lb, rb *colBatch, emit func(l, r int32)) {
	lv, rv := lb.cols[j.lKeyIdx], rb.cols[j.rKeyIdx]
	ln, rn := lb.len(), rb.len()
	if lv.kind == vecNum && rv.kind == vecNum {
		for li := 0; li < ln; li++ {
			llane := lb.lane(li)
			if lv.isNull(llane) {
				continue
			}
			a := lv.nums[llane]
			for ri := 0; ri < rn; ri++ {
				rlane := rb.lane(ri)
				if rv.isNull(rlane) {
					continue
				}
				// Equal via Compare: NaN compares 0 to every number, so the
				// branch-inverted form keeps NaN matching everything.
				if b := rv.nums[rlane]; !(a < b) && !(a > b) {
					emit(llane, rlane)
				}
			}
		}
		return
	}
	for li := 0; li < ln; li++ {
		llane := lb.lane(li)
		a := lv.value(llane)
		if a.IsNull() {
			continue
		}
		for ri := 0; ri < rn; ri++ {
			rlane := rb.lane(ri)
			b := rv.value(rlane)
			if b.IsNull() || !a.Equal(b) {
				continue
			}
			emit(llane, rlane)
		}
	}
}

// colFilterNode applies the residual conjuncts: the error-free prefix as
// kernels (or lane-at-a-time row closures), then everything from the first
// error-capable conjunct on as one fused row-major loop, so the first error
// a row raises surfaces first.
type colFilterNode struct {
	child colNode
	vecs  []colPredPlan
	fused []rowBool
}

func (f *colFilterNode) exec(ctx *execCtx) (*colBatch, error) {
	b, err := f.child.exec(ctx)
	if err != nil {
		return nil, err
	}
	var scratch []schema.Value
	for _, p := range f.vecs {
		if p.k != nil {
			b.refine(p.k.bindPred(b))
			continue
		}
		if scratch == nil {
			scratch = make([]schema.Value, len(b.cols))
		}
		if err := b.refineErr(func(i int32) (bool, error) {
			b.readRow(i, scratch)
			return p.r(ctx, scratch)
		}); err != nil {
			return nil, err
		}
	}
	if len(f.fused) > 0 {
		if scratch == nil {
			scratch = make([]schema.Value, len(b.cols))
		}
		if err := b.refineErr(func(i int32) (bool, error) {
			b.readRow(i, scratch)
			return evalPreds(ctx, f.fused, scratch)
		}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ---- vectorized projection ----

// colProj is the all-items-safe projection: every output cell and ORDER BY
// key gathers or computes without possible error, so cells materialize
// column-at-a-time into one backing allocation.
type colProj struct {
	items []kval
	keys  []kval
}

func (pr *colProj) run(p *selectPlan, b *colBatch) (*Result, error) {
	cells := evalLaneCols(pr.items, b)
	keys := evalLaneCols(pr.keys, b)
	return p.finish(cells, keys)
}

// evalLaneCols materializes one row slice per live lane, all cells backed by
// a single allocation. Cells fill column-major: plain column references box
// straight out of vector storage, computed items bind once per column.
func evalLaneCols(items []kval, b *colBatch) [][]schema.Value {
	k, nc := b.len(), len(items)
	if k == 0 || nc == 0 {
		return nil
	}
	backing := make([]schema.Value, k*nc)
	for c, it := range items {
		if kc, ok := it.(kvCol); ok {
			b.cols[kc.col].boxInto(b, backing, nc, c)
			continue
		}
		f := it.bindVal(b)
		for i := 0; i < k; i++ {
			backing[i*nc+c] = f(b.lane(i))
		}
	}
	rows := make([][]schema.Value, k)
	for i := range rows {
		rows[i] = backing[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return rows
}

// ---- vectorized grouping ----

// groupCtx is the per-execution grouping state: group ids per live lane (in
// lane order), the first lane of each group, and group sizes.
type groupCtx struct {
	b       *colBatch
	gids    []int32
	ngroups int
	first   []int32 // -1 for the empty implicit-aggregate group
	size    []int32
}

// gval computes one value per group (aggregate context).
type gval interface {
	eval(gc *groupCtx) []schema.Value
}

// gbool computes one boolean per group (HAVING context).
type gbool interface {
	eval(gc *groupCtx) []bool
}

type gvConst struct{ v schema.Value }

func (g gvConst) eval(gc *groupCtx) []schema.Value {
	out := make([]schema.Value, gc.ngroups)
	for i := range out {
		out[i] = g.v
	}
	return out
}

// gvFirstK evaluates a row-context kernel on each group's first row; an
// empty group yields NULL — the lazy tree-walker's semantics for both plain
// column references and row-safe expressions in aggregate context.
type gvFirstK struct{ k kval }

func (g gvFirstK) eval(gc *groupCtx) []schema.Value {
	out := make([]schema.Value, gc.ngroups)
	if gc.ngroups == 0 {
		return out
	}
	f := g.k.bindVal(gc.b)
	for i, lane := range gc.first {
		if lane < 0 {
			out[i] = schema.Null()
			continue
		}
		out[i] = f(lane)
	}
	return out
}

type gvFromBool struct{ b gbool }

func (g gvFromBool) eval(gc *groupCtx) []schema.Value {
	bs := g.b.eval(gc)
	out := make([]schema.Value, len(bs))
	for i, ok := range bs {
		if ok {
			out[i] = schema.N(1)
		} else {
			out[i] = schema.N(0)
		}
	}
	return out
}

// gvAgg is a vectorized aggregate over an error-free argument, accumulated
// in one pass over the live lanes (lane order = group row order, so
// DISTINCT first-seen dedup and MIN/MAX first-value seeding match the
// aggregate closures in eval.go exactly, NaN never replacing an established
// best included).
type gvAgg struct {
	fn       string
	distinct bool
	star     bool
	arg      kval
}

func (g gvAgg) eval(gc *groupCtx) []schema.Value {
	ng := gc.ngroups
	out := make([]schema.Value, ng)
	if g.star { // COUNT(*)
		for i := 0; i < ng; i++ {
			out[i] = schema.N(float64(gc.size[i]))
		}
		return out
	}
	if ng == 0 {
		return out
	}
	f := g.arg.bindVal(gc.b)
	counts := make([]int, ng)
	var sums []float64
	var bests []schema.Value
	var bestSet []bool
	switch g.fn {
	case "SUM", "AVG":
		sums = make([]float64, ng)
	case "MIN", "MAX":
		bests = make([]schema.Value, ng)
		bestSet = make([]bool, ng)
	}
	var seen []map[string]bool
	if g.distinct {
		seen = make([]map[string]bool, ng)
	}
	for ord, n := 0, gc.b.len(); ord < n; ord++ {
		gid := gc.gids[ord]
		v := f(gc.b.lane(ord))
		if v.IsNull() {
			continue
		}
		if g.distinct {
			k := strings.ToLower(v.String())
			if seen[gid] == nil {
				seen[gid] = map[string]bool{}
			}
			if seen[gid][k] {
				continue
			}
			seen[gid][k] = true
		}
		counts[gid]++
		switch g.fn {
		case "SUM", "AVG":
			if v.Kind != schema.KindNum {
				// Numeric-looking strings coerce; others still count toward
				// the AVG denominator without contributing to the sum.
				if n, ok := parseNum(v.Str); ok {
					sums[gid] += n
				}
			} else {
				sums[gid] += v.Num
			}
		case "MIN", "MAX":
			if !bestSet[gid] {
				bests[gid], bestSet[gid] = v, true
				continue
			}
			cv := v.Compare(bests[gid])
			if (g.fn == "MIN" && cv < 0) || (g.fn == "MAX" && cv > 0) {
				bests[gid] = v
			}
		}
	}
	for i := 0; i < ng; i++ {
		switch g.fn {
		case "COUNT":
			out[i] = schema.N(float64(counts[i]))
		case "SUM":
			if counts[i] == 0 {
				out[i] = schema.Null()
			} else {
				out[i] = schema.N(sums[i])
			}
		case "AVG":
			if counts[i] == 0 {
				out[i] = schema.Null()
			} else {
				out[i] = schema.N(sums[i] / float64(counts[i]))
			}
		case "MIN", "MAX":
			if !bestSet[i] {
				out[i] = schema.Null()
			} else {
				out[i] = bests[i]
			}
		}
	}
	return out
}

type gbAnd struct{ l, r gbool }

func (g gbAnd) eval(gc *groupCtx) []bool {
	l, r := g.l.eval(gc), g.r.eval(gc)
	for i := range l {
		l[i] = l[i] && r[i]
	}
	return l
}

type gbOr struct{ l, r gbool }

func (g gbOr) eval(gc *groupCtx) []bool {
	l, r := g.l.eval(gc), g.r.eval(gc)
	for i := range l {
		l[i] = l[i] || r[i]
	}
	return l
}

type gbNot struct{ e gbool }

func (g gbNot) eval(gc *groupCtx) []bool {
	bs := g.e.eval(gc)
	for i := range bs {
		bs[i] = !bs[i]
	}
	return bs
}

// gbCmp compares two group values with the shared coercing compare().
type gbCmp struct {
	op   string
	l, r gval
}

func (g gbCmp) eval(gc *groupCtx) []bool {
	l, r := g.l.eval(gc), g.r.eval(gc)
	out := make([]bool, len(l))
	for i := range l {
		out[i] = compare(g.op, l[i], r[i])
	}
	return out
}

// gbRow evaluates a row-context predicate on each group's first row; an
// empty group is false (groupBoolFn's default-branch semantics).
type gbRow struct{ p kpred }

func (g gbRow) eval(gc *groupCtx) []bool {
	out := make([]bool, gc.ngroups)
	if gc.ngroups == 0 {
		return out
	}
	f := g.p.bindPred(gc.b)
	for i, lane := range gc.first {
		if lane >= 0 {
			out[i] = f(lane)
		}
	}
	return out
}

// colGroup is the vectorized grouped projection: group keys, HAVING, items
// and ORDER BY keys all admit group kernels.
type colGroup struct {
	implicit bool
	keyIdx   []int // explicit grouping keys (batch columns)
	having   gbool
	items    []gval
	keys     []gval
}

func (cg *colGroup) run(p *selectPlan, b *colBatch) (*Result, error) {
	gc := cg.buildGroups(b)
	surv := make([]int32, 0, gc.ngroups)
	if cg.having != nil {
		hv := cg.having.eval(gc)
		for g := 0; g < gc.ngroups; g++ {
			if hv[g] {
				surv = append(surv, int32(g))
			}
		}
	} else {
		for g := 0; g < gc.ngroups; g++ {
			surv = append(surv, int32(g))
		}
	}
	cells := evalGroupCols(cg.items, gc, surv)
	keys := evalGroupCols(cg.keys, gc, surv)
	return p.finish(cells, keys)
}

func evalGroupCols(items []gval, gc *groupCtx, surv []int32) [][]schema.Value {
	k, nc := len(surv), len(items)
	if k == 0 || nc == 0 {
		return nil
	}
	cols := make([][]schema.Value, nc)
	for c, it := range items {
		cols[c] = it.eval(gc)
	}
	backing := make([]schema.Value, k*nc)
	rows := make([][]schema.Value, k)
	for i, g := range surv {
		row := backing[i*nc : (i+1)*nc : (i+1)*nc]
		for c := range cols {
			row[c] = cols[c][g]
		}
		rows[i] = row
	}
	return rows
}

// buildGroups assigns a group id to every live lane. Explicit grouping keys
// use the exact rowKey encoding (lower-cased String() joined with \x1f) so
// that key collisions — NULL vs the string "null", distinct floats that
// render identically at 12 digits — group exactly as rowsSelect's rowKey
// grouping does.
func (cg *colGroup) buildGroups(b *colBatch) *groupCtx {
	live := b.len()
	gc := &groupCtx{b: b}
	if cg.implicit {
		gc.ngroups = 1
		gc.gids = make([]int32, live)
		gc.first = []int32{-1}
		gc.size = []int32{int32(live)}
		if live > 0 {
			gc.first[0] = b.lane(0)
		}
		return gc
	}
	gc.gids = make([]int32, live)
	keyVecs := make([]*vec, len(cg.keyIdx))
	memos := make([]map[float64]string, len(cg.keyIdx))
	for i, idx := range cg.keyIdx {
		keyVecs[i] = b.cols[idx]
		if keyVecs[i].kind == vecNum {
			memos[i] = map[float64]string{}
		}
	}
	byKey := map[string]int32{}
	var buf []byte
	for ord := 0; ord < live; ord++ {
		lane := b.lane(ord)
		var k string
		if len(keyVecs) == 1 {
			k = groupKeyPart(keyVecs[0], lane, memos[0])
		} else {
			buf = buf[:0]
			for ci, v := range keyVecs {
				if ci > 0 {
					buf = append(buf, 0x1f)
				}
				buf = append(buf, groupKeyPart(v, lane, memos[ci])...)
			}
			k = string(buf)
		}
		gid, ok := byKey[k]
		if !ok {
			gid = int32(len(gc.first))
			byKey[k] = gid
			gc.first = append(gc.first, lane)
			gc.size = append(gc.size, 0)
		}
		gc.gids[ord] = gid
		gc.size[gid]++
	}
	gc.ngroups = len(gc.first)
	return gc
}

// groupKeyPart renders one key cell as strings.ToLower(Value.String()),
// memoizing the float formatting per distinct value (NaN excepted: NaN map
// keys never match, so memoizing them would only grow the map).
func groupKeyPart(v *vec, lane int32, memo map[float64]string) string {
	switch v.kind {
	case vecNum:
		if v.isNull(lane) {
			return "null"
		}
		f := v.nums[lane]
		if s, ok := memo[f]; ok {
			return s
		}
		s := lowerCheap(strconv.FormatFloat(f, 'g', 12, 64))
		if !math.IsNaN(f) {
			memo[f] = s
		}
		return s
	case vecStr:
		if v.isNull(lane) {
			return "null"
		}
		return lowerCheap(v.strs[lane])
	default:
		return lowerCheap(v.vals[lane].String())
	}
}

// ---- plan glue ----

// buildColProj compiles the ungrouped projection, all-or-nothing: every
// output item and ORDER BY key must vectorize, else the plan keeps only the
// row closures (which also own every error case).
func buildColProj(sel *sqlir.Select, star bool, nbind int, cc *colComp) *colProj {
	pr := &colProj{}
	if star {
		for fi := 0; fi < nbind; fi++ {
			pos := cc.colMap[fi]
			if pos < 0 {
				return nil
			}
			pr.items = append(pr.items, kvCol{col: pos})
		}
	} else {
		for _, it := range sel.Items {
			if isStar(it.Expr) || !errorFreeValue(it.Expr, cc.bindings) {
				return nil
			}
			k := cc.val(it.Expr)
			if k == nil {
				return nil
			}
			pr.items = append(pr.items, k)
		}
	}
	for _, o := range sel.OrderBy {
		if !errorFreeValue(o.Expr, cc.bindings) {
			return nil
		}
		k := cc.val(o.Expr)
		if k == nil {
			return nil
		}
		pr.keys = append(pr.keys, k)
	}
	return pr
}

// buildColGroup compiles the grouped projection, all-or-nothing like
// buildColProj: group keys must have resolved, and HAVING, items and ORDER
// BY keys must all admit group kernels.
func buildColGroup(sel *sqlir.Select, p *selectPlan, cc *colComp) *colGroup {
	g := &colGroup{implicit: p.implicitAgg}
	if p.explicitGroup {
		for _, gk := range p.groupKeys {
			if gk.err != nil {
				return nil
			}
			g.keyIdx = append(g.keyIdx, gk.idx)
		}
		if sel.Having != nil {
			g.having = cc.gboolFor(sel.Having)
			if g.having == nil {
				return nil
			}
		}
	}
	for _, it := range sel.Items {
		if isStar(it.Expr) {
			return nil // star in aggregate context errors; keep the closure
		}
		gv := cc.gvalFor(it.Expr)
		if gv == nil {
			return nil
		}
		g.items = append(g.items, gv)
	}
	for _, o := range sel.OrderBy {
		gv := cc.gvalFor(o.Expr)
		if gv == nil {
			return nil
		}
		g.keys = append(g.keys, gv)
	}
	return g
}
