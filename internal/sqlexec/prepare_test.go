package sqlexec

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

func TestPrepareReuseAcrossInstances(t *testing.T) {
	db := testDB()
	stmt, err := PrepareSQL(db, "SELECT T1.name, T2.bname FROM singer AS T1 JOIN band AS T2 ON T1.band_id = T2.id WHERE T2.genre = 'rock'")
	if err != nil {
		t.Fatal(err)
	}
	// Same schema, different rows: the TS metric's reinstantiated shape.
	inst := spider.Reinstantiate(db, 42)
	for _, target := range []*schema.Database{db, inst, db} {
		res, err := stmt.Exec(target)
		if err != nil {
			t.Fatalf("Exec on %s: %v", target.Name, err)
		}
		want, err := ExecSQL(target, "SELECT T1.name, T2.bname FROM singer AS T1 JOIN band AS T2 ON T1.band_id = T2.id WHERE T2.genre = 'rock'")
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameResult(res, want); msg != "" {
			t.Fatalf("prepared result diverges from one-shot on %s: %s", target.Name, msg)
		}
	}
}

func TestPrepareSchemaMismatch(t *testing.T) {
	db := testDB()
	stmt, err := PrepareSQL(db, "SELECT name FROM singer")
	if err != nil {
		t.Fatal(err)
	}
	other := db.Clone()
	other.Tables[0].Columns = other.Tables[0].Columns[:3] // drop columns
	if _, err := stmt.Exec(other); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("got %v, want ErrSchemaMismatch", err)
	}
}

// TestPrepareDetachedFromAST: the adaption module mutates ASTs in place
// between executions; a compiled statement must not observe that.
func TestPrepareDetachedFromAST(t *testing.T) {
	db := testDB()
	sel := sqlir.MustParse("SELECT name FROM singer WHERE age > 30")
	stmt, err := Prepare(db, sel)
	if err != nil {
		t.Fatal(err)
	}
	before, err := stmt.Exec(db)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the AST the statement was prepared from.
	sel.Where = &sqlir.Binary{Op: "<", L: &sqlir.ColumnRef{Column: "age"}, R: &sqlir.Literal{Num: 0}}
	sel.Items[0].Expr = &sqlir.ColumnRef{Column: "country"}
	after, err := stmt.Exec(db)
	if err != nil {
		t.Fatal(err)
	}
	if msg := sameResult(after, before); msg != "" {
		t.Fatalf("AST mutation leaked into compiled plan: %s", msg)
	}
}

// TestStmtConcurrentReuse runs one compiled statement from many goroutines
// against multiple database instances; under -race this proves Stmt holds
// no shared mutable execution state.
func TestStmtConcurrentReuse(t *testing.T) {
	db := testDB()
	queries := []string{
		"SELECT T1.name, T2.bname FROM singer AS T1 JOIN band AS T2 ON T1.band_id = T2.id WHERE T2.genre != 'pop'",
		"SELECT country, COUNT(*) FROM singer GROUP BY country HAVING COUNT(*) >= 1 ORDER BY country ASC",
		"SELECT name FROM singer WHERE band_id IN (SELECT id FROM band WHERE genre = 'jazz')",
	}
	dbs := []*schema.Database{db, spider.Reinstantiate(db, 7), spider.Reinstantiate(db, 11)}
	for _, sql := range queries {
		stmt, err := PrepareSQL(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		wants := make([]*Result, len(dbs))
		for i, d := range dbs {
			wants[i], err = stmt.Exec(d)
			if err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					di := i % len(dbs)
					res, err := stmt.Exec(dbs[di])
					if err != nil {
						errs <- err
						return
					}
					if msg := sameResult(res, wants[di]); msg != "" {
						errs <- fmt.Errorf("concurrent exec diverged: %s", msg)
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

func TestPlanCacheHitsAndEviction(t *testing.T) {
	db := testDB()
	c := NewPlanCache(2)
	exec := func(sql string) {
		t.Helper()
		stmt, err := c.Prepare(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.Exec(db); err != nil {
			t.Fatal(err)
		}
	}
	exec("SELECT name FROM singer") // miss
	exec("SELECT name FROM singer") // hit
	exec("SELECT bname FROM band")  // miss
	exec("SELECT genre FROM band")  // miss, evicts the singer query
	exec("SELECT name FROM singer") // miss again (evicted)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions < 1 || st.Size != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	c.Reset()
	if st := c.Stats(); st.Hits != 0 || st.Size != 0 {
		t.Fatalf("Reset left state: %+v", st)
	}
}

// TestPlanCacheSchemaKeyed: the same SQL against structurally different
// databases must not share plans.
func TestPlanCacheSchemaKeyed(t *testing.T) {
	db := testDB()
	other := db.Clone()
	other.Tables[0].Columns = append(other.Tables[0].Columns, schema.Column{Name: "extra", Type: schema.TypeText})
	for i := range other.Tables[0].Rows {
		other.Tables[0].Rows[i] = append(other.Tables[0].Rows[i], schema.S("x"))
	}
	c := NewPlanCache(8)
	s1, err := c.Prepare(db, "SELECT * FROM singer")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Prepare(other, "SELECT * FROM singer")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Exec(db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Exec(other)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Cols) == len(r2.Cols) {
		t.Fatal("schema-distinct databases shared a plan")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("expected two misses, got %+v", st)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	db := testDB()
	c := NewPlanCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				sql := fmt.Sprintf("SELECT name FROM singer WHERE age > %d", i%5)
				stmt, err := c.Prepare(db, sql)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := stmt.Exec(db); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*40 {
		t.Fatalf("lost lookups: %+v", st)
	}
}

// TestPushdownPreservesLazyErrors: an error-capable conjunct must not gain
// or lose its error when a later error-free conjunct could have been pushed
// below the join.
func TestPushdownPreservesLazyErrors(t *testing.T) {
	db := testDB()
	// bogus + 1 errors only when evaluated; the trailing genre conjunct must
	// not be pushed below it (it would change the rows bogus sees).
	sql := "SELECT T1.name FROM singer AS T1 JOIN band AS T2 ON T1.band_id = T2.id WHERE T1.age + T1.name > 3 AND T2.genre = 'rock'"
	_, optErr := ExecSQL(db, sql)
	sel := sqlir.MustParse(sql)
	_, nlErr := ExecOptions(db, sel, Unoptimized())
	if (optErr == nil) != (nlErr == nil) {
		t.Fatalf("optimization changed error behaviour: optimized=%v unoptimized=%v", optErr, nlErr)
	}
	if optErr == nil {
		t.Fatal("expected arithmetic error on non-numeric values")
	}
}

// TestNaNKeysHashMatchesNestedLoop: Value.Compare returns 0 when either
// operand is NaN, so under Equal a NaN "equals" every number — which no
// hash key can express. The hash join and hash IN paths must detect NaN
// and degrade to the Equal-faithful linear scans, keeping both physical
// paths byte-identical.
func TestNaNKeysHashMatchesNestedLoop(t *testing.T) {
	nan := math.NaN()
	left := &schema.Table{
		Name:    "l",
		Columns: []schema.Column{{Name: "k", Type: schema.TypeNumber}, {Name: "tag", Type: schema.TypeText}},
		Rows: [][]schema.Value{
			{schema.N(1), schema.S("one")},
			{schema.N(nan), schema.S("nan")},
			{schema.N(2), schema.S("two")},
		},
	}
	right := &schema.Table{
		Name:    "r",
		Columns: []schema.Column{{Name: "k2", Type: schema.TypeNumber}, {Name: "val", Type: schema.TypeNumber}},
		Rows: [][]schema.Value{
			{schema.N(1), schema.N(10)},
			{schema.N(nan), schema.N(20)},
		},
	}
	db := &schema.Database{Name: "nan", Tables: []*schema.Table{left, right}}
	for _, sql := range []string{
		"SELECT tag, val FROM l JOIN r ON k = k2",
		"SELECT tag FROM l WHERE k IN (SELECT k2 FROM r)",
		"SELECT tag FROM l WHERE k NOT IN (SELECT k2 FROM r)",
		"SELECT tag FROM l WHERE k IN (1, 2)", // NaN probe against a literal-list hash set
	} {
		sel := sqlir.MustParse(sql)
		opt, optErr := ExecOptions(db, sel, PlanOptions{})
		nl, nlErr := ExecOptions(db, sel, Unoptimized())
		if (optErr == nil) != (nlErr == nil) {
			t.Fatalf("%q: error disagreement: %v vs %v", sql, optErr, nlErr)
		}
		if optErr != nil {
			continue
		}
		if msg := sameResult(opt, nl); msg != "" {
			t.Errorf("%q: hash path diverged from nested loop on NaN keys: %s", sql, msg)
		}
	}
}

// TestPushdownSkipsBooleanContextErrors: a bare column reference parses as
// a predicate but always errors in boolean context — pushing it below a
// join would surface an error the lazy post-join WHERE suppresses when the
// join produces zero rows. Both physical paths must agree.
func TestPushdownSkipsBooleanContextErrors(t *testing.T) {
	db := testDB()
	empty := &schema.Table{
		Name:    "noband",
		Columns: []schema.Column{{Name: "bid", Type: schema.TypeNumber}},
	}
	db.Tables = append(db.Tables, empty)
	for _, sql := range []string{
		// Join yields zero rows (noband is empty), so WHERE never runs.
		"SELECT T1.name FROM singer AS T1 JOIN noband AS T2 ON T1.band_id = T2.bid WHERE T1.name",
		"SELECT T1.name FROM singer AS T1 JOIN noband AS T2 ON T1.band_id = T2.bid WHERE NOT T1.name AND T1.age > 0",
	} {
		sel := sqlir.MustParse(sql)
		opt, optErr := ExecOptions(db, sel, PlanOptions{})
		nl, nlErr := ExecOptions(db, sel, Unoptimized())
		if (optErr == nil) != (nlErr == nil) {
			t.Fatalf("%q: pushdown changed error behaviour: optimized=%v unoptimized=%v", sql, optErr, nlErr)
		}
		if optErr != nil {
			continue
		}
		if msg := sameResult(opt, nl); msg != "" {
			t.Errorf("%q: paths diverged: %s", sql, msg)
		}
		if len(opt.Rows) != 0 {
			t.Errorf("%q: expected zero rows from the empty join", sql)
		}
	}
}

// TestUnknownColumnStaysLazy: resolution failures surface only when a row
// is actually evaluated — empty relations execute cleanly, exactly like the
// old tree-walking executor.
func TestUnknownColumnStaysLazy(t *testing.T) {
	db := testDB()
	empty := &schema.Table{
		Name:    "empty",
		Columns: []schema.Column{{Name: "id", Type: schema.TypeNumber}},
	}
	db.Tables = append(db.Tables, empty)
	if _, err := ExecSQL(db, "SELECT bogus FROM empty"); err != nil {
		t.Fatalf("projection over empty relation errored: %v", err)
	}
	if _, err := ExecSQL(db, "SELECT id FROM empty WHERE bogus = 1"); err != nil {
		t.Fatalf("WHERE over empty relation errored: %v", err)
	}
	if _, err := ExecSQL(db, "SELECT bogus FROM singer"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("non-empty relation must error: %v", err)
	}
}
