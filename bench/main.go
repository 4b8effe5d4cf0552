// Command bench is the repository benchmark. It builds cmd/nl2sql-server,
// boots a fresh server for each workload at the paper's corpus scale,
// drives all load from this one process over a single connection,
// checks every answer against an in-process reference pass, and prints each
// metric as "workload metric value unit" followed by a one-line JSON
// summary. BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md in this directory explains them.
//
// From the repository root (bench/run.sh keeps Go's caches in .bench_build):
//
//	bash bench/run.sh --workload ask-cold --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --repeat 5 --seed 1 --out bench/out/a.json
//	bash bench/run.sh --compare bench/out/a.json bench/out/b.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout)) }

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run (a name from BENCHMARK.json, or all)")
	seed := fs.Int64("seed", 1, "input seed: request order, hot tasks and tenant traffic (the corpus seed stays 1)")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0 uses run_seconds from BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1 has the servers record every load request's spans and reports the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run each selected workload N times with seeds seed..seed+N-1 and write the set to -out")
	out := fs.String("out", "", "set file written by -repeat (default bench/out/set.json)")
	compare := fs.String("compare", "", "parent set file to compare with the change set file named by the one argument")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return fail(errors.New("-compare needs the change set file as its one argument"))
		}
		return compareSets(stdout, spec, *compare, fs.Arg(0))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fail(errors.New("-trace takes 0 or 1"))
	}
	if *traceFlag == 1 && *repeat > 0 {
		return fail(errors.New("-repeat compares end-to-end metrics, which come from untraced runs"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || !spec.workload(n) {
			return fail(fmt.Errorf("unknown workload %q", n))
		}
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r, err := newRunner(ctx, spec, root, stdout)
	if err != nil {
		return fail(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if *repeat > 0 {
		if *out == "" {
			*out = filepath.Join(r.outDir, "set.json")
		}
		return repeatRuns(ctx, r, names, cfg, *repeat, *out)
	}
	exit := 0
	for _, n := range names {
		cfg.workload = n
		res, err := r.run(ctx, cfg)
		if err != nil {
			return fail(err)
		}
		if err := r.report(res); err != nil {
			return fail(err)
		}
		if !res.Correct {
			exit = 1
		}
	}
	return exit
}

// findRoot walks up from the working directory to the checkout holding
// BENCHMARK.json, so the benchmark runs from the root or from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or above", specFile)
		}
		dir = parent
	}
}
