package sqlexec

import (
	"testing"

	"repro/internal/spider"
	"repro/internal/sqlir"
)

// FuzzExecDifferential feeds arbitrary SQL through the parser and, for
// whatever parses, executes it on a fixed corpus database in both plan
// shapes (optimized and forced nested-loop) and through the reference
// evaluator. Any divergence — result rows, canonical encoding, ordered flag,
// or the exact error text — is a crash; this is the moving fence around the
// vectorized kernels' lazy-error ordering.
func FuzzExecDifferential(f *testing.F) {
	for _, s := range []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = 1 AND b < 'x' ORDER BY a DESC LIMIT 3",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2",
		"SELECT t1.a FROM t1 JOIN t2 ON t1.id = t2.id WHERE t2.b IN (1, 2, 3)",
		"SELECT a FROM t WHERE b BETWEEN 1 AND 5 OR c LIKE '%x%'",
		"SELECT a FROM t WHERE NOT a = 1 AND b IS NOT NULL",
		"SELECT a FROM t WHERE a IN (SELECT b FROM u) UNION SELECT c FROM v",
		"SELECT DISTINCT a + b * 2 FROM t AS x WHERE a / 2 >= 1",
		"SELECT MAX(a) - MIN(a) FROM t",
		"SELECT a FROM t WHERE a > (SELECT AVG(b) FROM u)",
	} {
		f.Add(s)
	}
	c := spider.GenerateSmall(7, 0.02)
	for i, e := range c.Dev.Examples {
		if i >= 64 {
			break
		}
		f.Add(e.GoldSQL)
	}
	dbs := c.Dev.Databases
	if len(dbs) == 0 {
		f.Fatal("no databases")
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 {
			t.Skip("input too large")
		}
		sel, err := sqlir.Parse(input)
		if err != nil {
			return
		}
		// Spread parsed inputs across the corpus databases so table and
		// column names resolve under more than one schema.
		db := dbs[len(input)%len(dbs)]
		diffOne(t, db, sel)
	})
}
