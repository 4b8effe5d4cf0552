package sqlexec

import (
	"testing"

	"repro/internal/benchfix"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// Engine micro-benchmarks: the EX/TS metrics and consistency voting execute
// tens of thousands of queries per experiment, so per-query latency is the
// harness's dominant cost. The *Unoptimized / *NestedLoop / *Replan
// variants measure the same workload with the optimizer rule (or the
// prepared-statement layer) switched off, so the speedup of each rewrite is
// directly visible in the numbers.
//
// The fixture (database shape and workload SQL) lives in internal/benchfix.
// CI runs the gated ones with `go test -bench -benchmem` and compares them
// against BENCH_executor.txt; BenchmarkSetOp, BenchmarkSubquery,
// BenchmarkPrepare and BenchmarkParse are not gated.

func benchExecOpts(b *testing.B, rows int, sql string, opts PlanOptions) {
	db := benchfix.DB(rows)
	sel := sqlir.MustParse(sql)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecOptions(db, sel, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchExec(b *testing.B, rows int, sql string) {
	benchExecOpts(b, rows, sql, PlanOptions{})
}

func BenchmarkExecScanFilter(b *testing.B) {
	benchExec(b, benchfix.ExecRows, benchfix.ScanFilterSQL)
}

func BenchmarkExecHashJoin(b *testing.B) {
	benchExec(b, benchfix.ExecRows, benchfix.TwoTableSQL)
}

func BenchmarkExecNestedLoopJoin(b *testing.B) {
	benchExecOpts(b, benchfix.ExecRows, benchfix.TwoTableSQL, Unoptimized())
}

func BenchmarkExecJoinHeavy(b *testing.B) {
	benchExec(b, benchfix.ExecRows, benchfix.JoinHeavySQL)
}

func BenchmarkExecJoinHeavyUnoptimized(b *testing.B) {
	benchExecOpts(b, benchfix.ExecRows, benchfix.JoinHeavySQL, Unoptimized())
}

func BenchmarkExecGroupBy(b *testing.B) {
	benchExec(b, benchfix.ExecRows, benchfix.GroupBySQL)
}

func BenchmarkExecSetOp(b *testing.B) {
	benchExec(b, benchfix.ExecRows, benchfix.SetOpSQL)
}

func BenchmarkExecSubquery(b *testing.B) {
	benchExec(b, benchfix.ExecRows, benchfix.ScalarSubSQL)
}

func BenchmarkExecInSubqueryHash(b *testing.B) {
	benchExec(b, benchfix.ExecRows, benchfix.InSubquerySQL)
}

func BenchmarkExecInSubqueryLinear(b *testing.B) {
	benchExecOpts(b, benchfix.ExecRows, benchfix.InSubquerySQL, PlanOptions{NoHashSets: true})
}

// BenchmarkPreparedReexec is the TS-metric shape: one statement executed
// across many reinstantiated database instances.
func BenchmarkPreparedReexec(b *testing.B) {
	db := benchfix.DB(benchfix.ReexecRows)
	var instances []*schema.Database
	for i := 0; i < benchfix.ReexecInstances; i++ {
		instances = append(instances, spider.Reinstantiate(db, int64(i+1)))
	}
	stmt, err := PrepareSQL(db, benchfix.JoinHeavySQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range instances {
			if _, err := stmt.Exec(inst); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReplanReexec is the same workload without the prepared layer:
// parse + plan per instance, the pre-refactor cost model.
func BenchmarkReplanReexec(b *testing.B) {
	db := benchfix.DB(benchfix.ReexecRows)
	var instances []*schema.Database
	for i := 0; i < benchfix.ReexecInstances; i++ {
		instances = append(instances, spider.Reinstantiate(db, int64(i+1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range instances {
			if _, err := ExecSQL(inst, benchfix.JoinHeavySQL); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPrepare(b *testing.B) {
	db := benchfix.DB(100)
	sel := sqlir.MustParse(benchfix.JoinHeavySQL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(db, sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	sql := "SELECT T1.val FROM c AS T1 JOIN p AS T2 ON T1.p_id = T2.id WHERE T2.grade > 5 GROUP BY T1.val ORDER BY COUNT(*) DESC LIMIT 3"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlir.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}
