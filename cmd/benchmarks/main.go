// Command benchmarks regenerates the tables and figures of the PURPLE paper
// (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	benchmarks -exp table4 -scale 0.2 -limit 200
//	benchmarks -exp all -workers 8
//
// The packages' micro-benchmarks run under `go test -bench`; CI gates them
// against the committed BENCH_*.txt baselines with cmd/benchdiff.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		which   = flag.String("exp", "all", "experiment: table1|table3|table4|table5|table6|fig9|fig10|fig11|fig12|all")
		scale   = flag.Float64("scale", 0.15, "corpus scale in (0,1]; 1.0 = the paper's full Table 3 sizes")
		limit   = flag.Int("limit", 0, "cap evaluated examples per run (0 = all)")
		seed    = flag.Int64("seed", 1, "corpus and pipeline seed")
		workers = flag.Int("workers", 1, "translation worker pool size (>1 parallelizes; output is identical to -workers 1)")
	)
	flag.Parse()

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building corpus and training substrate models (scale=%.2f)...\n", *scale)
	env := exp.NewEnv(*seed, *scale)
	fmt.Fprintf(os.Stderr, "environment ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	opts := exp.RunOptions{Limit: *limit, Workers: *workers}
	run := func(name string, fn func() string) {
		if *which != "all" && *which != name {
			return
		}
		t := time.Now()
		fmt.Println(fn())
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, time.Since(t).Round(time.Millisecond))
	}

	// The Figure 11/12 grids evaluate 20-24 configurations; cap their
	// per-cell example count so full-corpus runs stay affordable.
	gridOpts := opts
	if gridOpts.Limit == 0 || gridOpts.Limit > 150 {
		gridOpts.Limit = 150
	}

	run("table3", env.Table3)
	run("table1", func() string { return env.Table1(opts) })
	run("table4", func() string { return env.Table4(opts) })
	run("fig9", func() string { return env.Figure9(opts) })
	run("fig10", func() string { return env.Figure10(opts) })
	run("fig11", func() string { return env.Figure11(gridOpts) })
	run("fig12", func() string { return env.Figure12(gridOpts) })
	run("table5", func() string { return env.Table5(opts) })
	run("table6", func() string { return env.Table6(opts) })
}
