// Command benchdiff is the CI performance-regression gate: it compares the
// output of a fresh `go test -bench -benchmem` run against a committed
// baseline in the same format (BENCH_*.txt) and fails (exit 1) when any
// baseline benchmark regressed more than the threshold in ns/op, or did not
// run at all. Either file may repeat a benchmark (`go test -count N`); the
// gate then reads each benchmark's median ns/op and median allocs/op, so one
// slow run among several does not fail it.
//
// Usage:
//
//	go test -run '^$' -bench '^(BenchmarkA|BenchmarkB)$' -benchmem -count 3 ./pkg > fresh/BENCH_x.txt
//	benchdiff -baseline BENCH_x.txt -current fresh/BENCH_x.txt
//	benchdiff -baseline ... -current ... -threshold 0.30 -allow BenchmarkExecGroupBy,BenchmarkPreparedReexec
//	benchdiff -baseline ... -current ... -min-ns 500 -max-allocs-growth 0.10
//
// Semantics:
//
//   - A benchmark present in both files with current ns/op more than
//     (1+threshold)× the baseline is a regression — unless it is named in
//     -allow (the escape hatch for intentional changes; note WHY in the PR).
//   - Benchmarks below -min-ns baseline ns/op are compared but never fail
//     the gate: at nanosecond scale, scheduler and frequency jitter swamp a
//     relative threshold.
//   - -max-allocs-growth > 0 additionally gates allocs/op, which is machine-
//     independent and so can be held much tighter than time.
//   - A baseline benchmark missing from the current run fails the gate: a
//     renamed benchmark or a -bench pattern that misses one must not
//     silently leave it (a deliberate removal edits the baseline).
//     Benchmarks only in the current run are reported as "new" and pass.
//
// Names are compared without the -N GOMAXPROCS suffix go test appends, so a
// baseline taken on one machine gates a run on another. A file that repeats
// a benchmark under two different suffixes (`-cpu 2,4`) is rejected: those
// are different measurements, not repeats.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline BENCH_*.txt (required)")
		currentPath  = flag.String("current", "", "fresh `go test -bench -benchmem` output (required)")
		threshold    = flag.Float64("threshold", 0.30, "maximum tolerated ns/op growth as a fraction (0.30 = +30%)")
		allowList    = flag.String("allow", "", "comma-separated benchmark names exempt from the gate (intentional changes)")
		minNs        = flag.Float64("min-ns", 500, "skip gating benchmarks whose baseline ns/op is below this floor (jitter guard); they are still reported")
		allocsGrowth = flag.Float64("max-allocs-growth", 0, "when > 0, also fail on allocs/op growth beyond this fraction")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := readFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := readFile(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	allow := map[string]bool{}
	for _, name := range strings.Split(*allowList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			allow[name] = true
		}
	}

	deltas := Compare(base, cur, Gate{
		Threshold:       *threshold,
		MinNs:           *minNs,
		MaxAllocsGrowth: *allocsGrowth,
		Allow:           allow,
	})
	failed := 0
	fmt.Printf("%-34s %14s %14s %9s  %s\n", "benchmark", "baseline ns/op", "current ns/op", "delta", "verdict")
	for _, d := range deltas {
		fmt.Printf("%-34s %14s %14s %9s  %s\n", d.Name, fmtNs(d.BaseNs), fmtNs(d.CurNs), fmtPct(d.Pct), d.Verdict)
		if d.Failed {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d benchmark(s) failed the %.0f%% gate (see table); "+
			"pass -allow for an intentional regression, edit the baseline for a removed benchmark, "+
			"and justify either in the PR\n", failed, *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: ok (%d compared, gate %.0f%%)\n", len(deltas), *threshold*100)
}

func fmtNs(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

func fmtPct(p float64) string {
	if p == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", p*100)
}

// Result is the part of one benchmark's measurements the gate reads: one
// run's, or the medians of repeated runs'.
type Result struct {
	Name        string // without the -N GOMAXPROCS suffix
	NsPerOp     float64
	AllocsPerOp float64
}

func readFile(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rs, nil
}

// medians folds repeated runs of a benchmark into one Result with the
// median ns/op and the median allocs/op (the mean of the middle two for an
// even count), in first-appearance order.
func medians(rs []Result) []Result {
	runs := map[string][]Result{}
	var order []string
	for _, r := range rs {
		if runs[r.Name] == nil {
			order = append(order, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	out := make([]Result, len(order))
	for i, name := range order {
		var ns, allocs []float64
		for _, r := range runs[name] {
			ns = append(ns, r.NsPerOp)
			allocs = append(allocs, r.AllocsPerOp)
		}
		out[i] = Result{Name: name, NsPerOp: median(ns), AllocsPerOp: median(allocs)}
	}
	return out
}

func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parse reads Go's benchmark text format, as `go test -bench -benchmem`
// writes it: one line per result,
//
//	BenchmarkExecScanFilter-2   58860   20940 ns/op   37912 B/op   39 allocs/op
//
// Lines that do not start with "Benchmark" — configuration lines such as
// "goos: linux", PASS, ok — are skipped. A benchmark may repeat, but only
// under one full name; its runs fold into one Result (medians). A line that does start with it must
// parse: log output interleaved with a result is the realistic cause, and a
// result read wrong would gate the wrong numbers. Each result needs a
// finite positive ns/op and a non-negative allocs/op (without -benchmem
// allocs would read as 0 and pass the allocs gate); other metric pairs, B/op
// among them, are accepted and ignored.
func parse(r io.Reader) ([]Result, error) {
	var out []Result
	fullName := map[string]string{} // name → the name with its suffix as first seen
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		if !strings.HasPrefix(sc.Text(), "Benchmark") {
			continue
		}
		res, err := parseResult(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		full := strings.Fields(sc.Text())[0]
		if first, ok := fullName[res.Name]; ok && first != full {
			return nil, fmt.Errorf("line %d: duplicate benchmark %s as %s and %s", line, res.Name, first, full)
		}
		fullName[res.Name] = full
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("no benchmark results")
	}
	return medians(out), nil
}

func parseResult(line string) (Result, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Result{}, fmt.Errorf("malformed result %q", line)
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return Result{}, fmt.Errorf("malformed iteration count in %q", line)
	}
	r := Result{Name: trimProcs(f[0])}
	hasAllocs := false
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("malformed %s value in %q", f[i+1], line)
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "allocs/op":
			if !(v >= 0) || math.IsInf(v, 1) {
				return Result{}, fmt.Errorf("%s: allocs/op %s is not a count", r.Name, f[i])
			}
			r.AllocsPerOp, hasAllocs = v, true
		}
	}
	if !(r.NsPerOp > 0) || math.IsInf(r.NsPerOp, 1) {
		return Result{}, fmt.Errorf("%s: ns/op missing or not a positive number", r.Name)
	}
	if !hasAllocs {
		return Result{}, fmt.Errorf("%s: no allocs/op (run with -benchmem)", r.Name)
	}
	return r, nil
}

// trimProcs drops the -N GOMAXPROCS suffix go test appends to a name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// Gate is the comparison policy.
type Gate struct {
	// Threshold is the tolerated fractional ns/op growth (0.30 = +30%).
	Threshold float64
	// MinNs exempts benchmarks whose baseline ns/op is below the floor.
	MinNs float64
	// MaxAllocsGrowth, when > 0, additionally gates allocs/op growth.
	MaxAllocsGrowth float64
	// Allow names benchmarks exempt from failing (still reported).
	Allow map[string]bool
}

// Delta is one benchmark's comparison row.
type Delta struct {
	Name   string
	BaseNs float64
	CurNs  float64
	// Pct is the fractional ns/op change (0 when not comparable).
	Pct float64
	// Verdict is the human-readable outcome; Failed marks gate failures.
	Verdict string
	Failed  bool
}

// Compare evaluates cur against base under the gate, returning one row per
// benchmark named in either run, in baseline-then-new order.
func Compare(base, cur []Result, g Gate) []Delta {
	byName := func(rs []Result) map[string]Result {
		m := make(map[string]Result, len(rs))
		for _, r := range rs {
			m[r.Name] = r
		}
		return m
	}
	baseBy, curBy := byName(base), byName(cur)
	var out []Delta
	for _, b := range base {
		c, ok := curBy[b.Name]
		if !ok {
			out = append(out, Delta{Name: b.Name, BaseNs: b.NsPerOp, Verdict: "MISSING (not in current run)", Failed: true})
			continue
		}
		d := Delta{Name: b.Name, BaseNs: b.NsPerOp, CurNs: c.NsPerOp, Pct: c.NsPerOp/b.NsPerOp - 1}
		switch {
		case g.Allow[b.Name]:
			d.Verdict = "allowed (exempt)"
		case b.NsPerOp < g.MinNs:
			d.Verdict = fmt.Sprintf("below %.0fns floor, not gated", g.MinNs)
		// Gate on the product form, not the ratio: 13000/10000-1 rounds to
		// just above 0.30 in float64, and an exactly-on-the-line delta must
		// pass so baseline refreshes don't flap.
		case c.NsPerOp > b.NsPerOp*(1+g.Threshold):
			d.Verdict = "REGRESSION"
			d.Failed = true
		default:
			d.Verdict = "ok"
		}
		// The allocs gate is independent of the ns jitter floor: allocs/op is
		// deterministic, so even a sub-MinNs benchmark (the lock-free lookup
		// hot path) is held to it. A zero-alloc baseline is a contract — any
		// growth from 0 fails.
		if !d.Failed && !g.Allow[b.Name] && g.MaxAllocsGrowth > 0 {
			switch {
			case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
				d.Verdict = fmt.Sprintf("ALLOCS REGRESSION (0 -> %g allocs/op)", c.AllocsPerOp)
				d.Failed = true
			case b.AllocsPerOp > 0 && c.AllocsPerOp/b.AllocsPerOp-1 > g.MaxAllocsGrowth:
				d.Verdict = fmt.Sprintf("ALLOCS REGRESSION (%+.1f%% allocs/op)", (c.AllocsPerOp/b.AllocsPerOp-1)*100)
				d.Failed = true
			}
		}
		out = append(out, d)
	}
	for _, c := range cur {
		if _, ok := baseBy[c.Name]; !ok {
			out = append(out, Delta{Name: c.Name, CurNs: c.NsPerOp, Verdict: "new (no baseline)"})
		}
	}
	return out
}
