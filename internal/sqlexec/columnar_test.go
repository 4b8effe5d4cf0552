package sqlexec

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/benchfix"
	"repro/internal/schema"
	"repro/internal/sqlir"
)

// Tests pinning the vectorized engine against the reference evaluator on
// the corners the columnar kernels specialize: NULL three-valued logic
// through typed comparison/LIKE/IN/BETWEEN kernels, allocation budgets on the
// scan/filter hot path, and concurrent statement execution over one cached
// columnar plan.

// nullDB builds a table whose columns hit every vec representation the
// engine has — packed numbers with NULL holes, packed strings with NULL
// holes, a mixed (boxed) column, NULL-free packed columns, and numeric
// oddities (NaN, ±0, ±Inf) that the specialized kernels must not mishandle.
func nullDB() *schema.Database {
	rows := [][]schema.Value{
		{schema.N(1), schema.N(10), schema.S("alpha"), schema.N(5), schema.N(1), schema.S("x")},
		{schema.N(2), schema.Null(), schema.S("Beta"), schema.N(7), schema.S("7"), schema.S("y")},
		{schema.N(3), schema.N(30), schema.Null(), schema.Null(), schema.N(3), schema.S("x")},
		{schema.N(4), schema.N(math.NaN()), schema.S("gamma"), schema.N(5), schema.Null(), schema.S("z")},
		{schema.N(5), schema.Null(), schema.Null(), schema.N(0), schema.S("five"), schema.S("y")},
		{schema.N(6), schema.N(math.Copysign(0, -1)), schema.S("delta"), schema.N(7), schema.N(6), schema.S("x")},
		{schema.N(7), schema.N(math.Inf(1)), schema.S("ALPHA"), schema.N(2), schema.N(7), schema.S("z")},
		{schema.N(8), schema.N(-30), schema.S(""), schema.Null(), schema.S(""), schema.S("y")},
	}
	main := &schema.Table{
		Name:       "v",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber}, // packed num, no NULLs
			{Name: "a", Type: schema.TypeNumber},  // packed num + NULL bitmap, NaN/-0/Inf
			{Name: "s", Type: schema.TypeText},    // packed str + NULL bitmap, case variants
			{Name: "b", Type: schema.TypeNumber},  // packed num + NULL bitmap
			{Name: "m", Type: schema.TypeText},    // mixed kinds -> boxed vecAny
			{Name: "tag", Type: schema.TypeText},  // packed str, no NULLs
		},
		Rows: rows,
	}
	other := &schema.Table{
		Name:       "w",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber},
			{Name: "v_id", Type: schema.TypeNumber},
			{Name: "label", Type: schema.TypeText},
		},
		Rows: [][]schema.Value{
			{schema.N(1), schema.N(1), schema.S("one")},
			{schema.N(2), schema.N(3), schema.S("three")},
			{schema.N(3), schema.Null(), schema.S("none")},
			{schema.N(4), schema.N(5), schema.S("five")},
			{schema.N(5), schema.N(9), schema.S("dangling")},
		},
	}
	return &schema.Database{
		Name:   "nulls",
		Tables: []*schema.Table{main, other},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "w", FromColumn: "v_id", ToTable: "v", ToColumn: "id"},
		},
	}
}

// TestNull3VLSystematic enumerates every comparison operator against NULL-
// bearing numeric and string columns, column-column comparisons, BETWEEN,
// LIKE, IN (with and without NULL-adjacent members), IS [NOT] NULL, and
// NOT/AND/OR combinations over them — the full three-valued-logic surface
// the vectorized kernels reimplement — and demands both plan shapes agree
// with the reference evaluator on each.
func TestNull3VLSystematic(t *testing.T) {
	db := nullDB()
	var sqls []string
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, pred := range []string{
			fmt.Sprintf("a %s 10", op),      // num cmp const, NULL + NaN lanes
			fmt.Sprintf("a %s 0", op),       // -0 vs +0 through the kernel
			fmt.Sprintf("s %s 'alpha'", op), // str cmp const, NULL + case lanes
			fmt.Sprintf("a %s b", op),       // num col-col, NULLs both sides
			fmt.Sprintf("m %s 7", op),       // boxed column falls off the fast path
			fmt.Sprintf("NOT a %s 10", op),  // NOT over UNKNOWN -> row excluded
		} {
			sqls = append(sqls, "SELECT id FROM v WHERE "+pred)
		}
	}
	sqls = append(sqls,
		"SELECT id FROM v WHERE a BETWEEN 0 AND 20",
		"SELECT id FROM v WHERE a NOT BETWEEN 0 AND 20",
		"SELECT id FROM v WHERE b BETWEEN 5 AND 7 AND a > 0",
		"SELECT id FROM v WHERE s LIKE 'al%'",
		"SELECT id FROM v WHERE s LIKE '%a%'",
		"SELECT id FROM v WHERE s NOT LIKE '_eta'",
		"SELECT id FROM v WHERE a IN (10, 30)",
		"SELECT id FROM v WHERE a NOT IN (10, 30)",
		"SELECT id FROM v WHERE s IN ('alpha', 'delta')",
		"SELECT id FROM v WHERE m IN (7, 'five')",
		"SELECT id FROM v WHERE a IS NULL",
		"SELECT id FROM v WHERE a IS NOT NULL",
		"SELECT id FROM v WHERE s IS NULL OR b IS NULL",
		"SELECT id FROM v WHERE a > 0 AND s < 'm'",
		"SELECT id FROM v WHERE a > 0 OR s IS NULL",
		"SELECT id FROM v WHERE NOT (a > 0 OR b > 6)",
		// NULL keys through the hash join and the grouped kernels.
		"SELECT w.label FROM w JOIN v ON w.v_id = v.id WHERE v.a > 0",
		"SELECT w.label FROM w JOIN v ON w.v_id = v.id",
		"SELECT tag, COUNT(a), SUM(b), MIN(s), MAX(a) FROM v GROUP BY tag",
		"SELECT tag, COUNT(*) FROM v WHERE a IS NOT NULL GROUP BY tag HAVING COUNT(*) >= 1",
		"SELECT COUNT(a), COUNT(*), AVG(b) FROM v",
		"SELECT COUNT(DISTINCT b) FROM v",
	)
	for _, sql := range sqls {
		sel, err := sqlir.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		diffOne(t, db, sel)
	}
}

// TestNull3VLRandom composes several hundred random predicate trees over the
// NULL-rich fixture — AND/OR/NOT over comparison, BETWEEN, LIKE, IN, and
// IS NULL leaves with randomly drawn columns and constants — and checks both
// plan shapes against the reference evaluator on every one.
func TestNull3VLRandom(t *testing.T) {
	db := nullDB()
	r := rand.New(rand.NewSource(42))
	cols := []string{"id", "a", "s", "b", "m", "tag"}
	consts := []string{"0", "5", "7", "10", "30", "'alpha'", "'x'", "'7'", "''"}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	var leaf func() string
	leaf = func() string {
		c := cols[r.Intn(len(cols))]
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("%s %s %s", c, ops[r.Intn(len(ops))], consts[r.Intn(len(consts))])
		case 1:
			return fmt.Sprintf("%s %s %s", c, ops[r.Intn(len(ops))], cols[r.Intn(len(cols))])
		case 2:
			lo := r.Intn(10)
			return fmt.Sprintf("%s BETWEEN %d AND %d", c, lo, lo+r.Intn(12))
		case 3:
			return fmt.Sprintf("%s LIKE '%%%c%%'", c, "aexy5"[r.Intn(5)])
		case 4:
			neg := ""
			if r.Intn(2) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%s %sIN (%s, %s)", c, neg, consts[r.Intn(len(consts))], consts[r.Intn(len(consts))])
		default:
			neg := ""
			if r.Intn(2) == 0 {
				neg = " NOT"
			}
			return fmt.Sprintf("%s IS%s NULL", c, neg)
		}
	}
	var tree func(depth int) string
	tree = func(depth int) string {
		if depth == 0 || r.Intn(3) == 0 {
			return leaf()
		}
		op := "AND"
		if r.Intn(2) == 0 {
			op = "OR"
		}
		s := fmt.Sprintf("(%s %s %s)", tree(depth-1), op, tree(depth-1))
		if r.Intn(4) == 0 {
			s = "NOT " + s
		}
		return s
	}
	for i := 0; i < 400; i++ {
		sql := "SELECT id FROM v WHERE " + tree(2)
		sel, err := sqlir.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		diffOne(t, db, sel)
	}
}

// TestColumnarAllocBudget pins the allocation count of the vectorized
// scan/filter path with testing.AllocsPerRun: a prepared statement scanning
// and filtering a 1000-row table must stay within a small constant
// allocation budget per execution — the near-zero-alloc property the
// columnar engine exists to provide. The budgets are deliberately a little
// above the measured counts so unrelated runtime noise does not flake, but
// far below what per-row boxing would cost (one allocation per row or
// worse).
func TestColumnarAllocBudget(t *testing.T) {
	db := benchfix.DB(1000)
	for _, tc := range []struct {
		name   string
		sql    string
		budget float64
	}{
		{"scan", "SELECT val FROM c", 16},
		{"scan_filter", benchfix.ScanFilterSQL, 16},
		{"filter_all_out", "SELECT val FROM c WHERE val < 0", 8},
		{"hash_join", benchfix.TwoTableSQL, 48},
	} {
		st, err := PrepareSQL(db, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := st.Exec(db); err != nil { // warm the column cache
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := st.Exec(db); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s: %v allocs per exec, budget %v", tc.name, got, tc.budget)
		}
	}
}

// TestConcurrentColumnarPlanSharing hammers one prepared statement — whose
// cached plan holds shared columnar state (column-cache images, kernels,
// join structures) — from many goroutines at once, on NULL-bearing data
// that exercises the vectorized filter and hash-join paths. Run under
// -race, this is the proof that plan sharing never mutates shared state
// per-execution.
func TestConcurrentColumnarPlanSharing(t *testing.T) {
	db := nullDB()
	sqls := []string{
		"SELECT v.id, w.label FROM w JOIN v ON w.v_id = v.id WHERE v.a > 0 OR v.s IS NULL",
		"SELECT tag, COUNT(a), SUM(b) FROM v WHERE b IS NOT NULL GROUP BY tag",
	}
	for _, sql := range sqls {
		st, err := PrepareSQL(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.Exec(db)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					res, err := st.Exec(db)
					if err != nil {
						errs <- err
						return
					}
					if msg := sameResult(res, want); msg != "" {
						errs <- fmt.Errorf("concurrent columnar exec diverged: %s", msg)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
