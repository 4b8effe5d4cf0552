package main

import (
	"os"
	"strings"
	"testing"
)

func res(name string, ns, allocs float64) Result {
	return Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func find(t *testing.T, deltas []Delta, name string) Delta {
	t.Helper()
	for _, d := range deltas {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no delta for %s", name)
	return Delta{}
}

func TestCompareGate(t *testing.T) {
	base := []Result{
		res("fast_ok", 10000, 5),        // +20% — under the gate
		res("slow_regressed", 10000, 5), // +50% — over the gate
		res("tiny_jitter", 80, 0),       // +200% but under the min-ns floor
		res("allowed_regressed", 10000, 5),
		res("skipped_in_current", 10000, 5),
	}
	cur := []Result{
		res("fast_ok", 12000, 5),
		res("slow_regressed", 15000, 5),
		res("tiny_jitter", 240, 0),
		res("allowed_regressed", 99999, 5),
		res("brand_new", 5000, 5),
	}
	deltas := Compare(base, cur, Gate{
		Threshold: 0.30,
		MinNs:     500,
		Allow:     map[string]bool{"allowed_regressed": true},
	})

	if d := find(t, deltas, "fast_ok"); d.Failed || d.Verdict != "ok" {
		t.Errorf("fast_ok: %+v", d)
	}
	if d := find(t, deltas, "slow_regressed"); !d.Failed || d.Verdict != "REGRESSION" {
		t.Errorf("slow_regressed must fail: %+v", d)
	}
	if d := find(t, deltas, "tiny_jitter"); d.Failed {
		t.Errorf("tiny_jitter is under the floor, must not fail: %+v", d)
	}
	if d := find(t, deltas, "allowed_regressed"); d.Failed {
		t.Errorf("allowlisted benchmark must not fail: %+v", d)
	}
	// A gated benchmark that stopped running (renamed, or missed by the
	// -bench pattern) must not silently leave the gate.
	if d := find(t, deltas, "skipped_in_current"); !d.Failed || d.CurNs != 0 {
		t.Errorf("benchmark missing from current must fail: %+v", d)
	}
	if d := find(t, deltas, "brand_new"); d.Failed || d.BaseNs != 0 {
		t.Errorf("new benchmark must not fail: %+v", d)
	}
}

func TestCompareExactThresholdPasses(t *testing.T) {
	// Exactly +30% is NOT a regression: the gate is strictly greater-than,
	// so a baseline refresh landing right on the line doesn't flap.
	deltas := Compare([]Result{res("b", 10000, 1)}, []Result{res("b", 13000, 1)},
		Gate{Threshold: 0.30, MinNs: 500})
	if d := find(t, deltas, "b"); d.Failed {
		t.Errorf("exact-threshold delta must pass: %+v", d)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	deltas := Compare([]Result{res("b", 10000, 1)}, []Result{res("b", 2000, 1)},
		Gate{Threshold: 0.30, MinNs: 500})
	if d := find(t, deltas, "b"); d.Failed || d.Pct > -0.7 {
		t.Errorf("improvement must pass with negative delta: %+v", d)
	}
}

func TestCompareAllocsGate(t *testing.T) {
	base := []Result{res("b", 10000, 100)}
	cur := []Result{res("b", 10100, 150)} // time fine, allocs +50%
	deltas := Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10})
	if d := find(t, deltas, "b"); !d.Failed {
		t.Errorf("allocs growth beyond the gate must fail: %+v", d)
	}
	// Without the allocs gate the same documents pass.
	deltas = Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500})
	if d := find(t, deltas, "b"); d.Failed {
		t.Errorf("allocs must not be gated when disabled: %+v", d)
	}
}

func TestCompareAllocsGateZeroBaseline(t *testing.T) {
	// A zero-alloc baseline is a contract (the lock-free lookup hot path):
	// any growth from 0 fails, even when the benchmark sits under the ns
	// jitter floor — allocs/op is machine-independent, so the floor does not
	// apply to it.
	base := []Result{res("lookup", 80, 0)}
	cur := []Result{res("lookup", 85, 3)}
	deltas := Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10})
	if d := find(t, deltas, "lookup"); !d.Failed {
		t.Errorf("0 -> 3 allocs/op must fail regardless of the ns floor: %+v", d)
	}
	// Still zero allocs: the sub-floor time jitter alone must not fail.
	cur = []Result{res("lookup", 160, 0)}
	deltas = Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10})
	if d := find(t, deltas, "lookup"); d.Failed {
		t.Errorf("sub-floor zero-alloc benchmark must not fail on time: %+v", d)
	}
	// The allowlist covers the allocs gate too.
	cur = []Result{res("lookup", 85, 3)}
	deltas = Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10,
		Allow: map[string]bool{"lookup": true}})
	if d := find(t, deltas, "lookup"); d.Failed {
		t.Errorf("allowlisted benchmark must not fail the allocs gate: %+v", d)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []Result // nil: an error whose text contains wantErr
		err  string
	}{
		{
			name: "go test output",
			in: "goos: linux\ngoarch: amd64\npkg: repro/internal/router\ncpu: Intel(R) Xeon(R)\n" +
				"BenchmarkRingLookup-2   \t91007330\t        13.07 ns/op\t       0 B/op\t       0 allocs/op\n" +
				"BenchmarkProxyRoundtrip-2\t   18964\t     57852 ns/op\t   14431 B/op\t     169 allocs/op\n" +
				"PASS\nok  \trepro/internal/router\t3.104s\n",
			want: []Result{{"BenchmarkRingLookup", 13.07, 0}, {"BenchmarkProxyRoundtrip", 57852, 169}},
		},
		{
			name: "no procs suffix, provenance header",
			in:   "generated_unix: 1785263587\ngo_version: go1.24.0\nBenchmarkLookupParallel16 14978370 82.02230756751236 ns/op 0 B/op 0 allocs/op\n",
			want: []Result{{"BenchmarkLookupParallel16", 82.02230756751236, 0}},
		},
		{
			name: "extra metric pairs",
			in:   "BenchmarkEngineBatch/workers=4-8  3  40000000 ns/op  512.5 queries/s  1024 B/op  77 allocs/op  91.0 hit%\n",
			want: []Result{{"BenchmarkEngineBatch/workers=4", 40000000, 77}},
		},
		{name: "empty", in: "", err: "no benchmark results"},
		{name: "no results", in: "goos: linux\nPASS\nok  \trepro/internal/trace\t0.01s\n", err: "no benchmark results"},
		{
			name: "repeated runs fold into medians",
			in: "BenchmarkA-2 10 300 ns/op 0 B/op 7 allocs/op\nBenchmarkB-2 10 50 ns/op 0 B/op 1 allocs/op\n" +
				"BenchmarkA-2 10 100 ns/op 0 B/op 5 allocs/op\nBenchmarkA-2 10 200 ns/op 0 B/op 5 allocs/op\n",
			want: []Result{{"BenchmarkA", 200, 5}, {"BenchmarkB", 50, 1}},
		},
		{
			name: "duplicate name across procs suffixes",
			in:   "BenchmarkA-2 10 100 ns/op 0 B/op 1 allocs/op\nBenchmarkA-4 10 120 ns/op 0 B/op 1 allocs/op\n",
			err:  "line 2: duplicate benchmark BenchmarkA",
		},
		{name: "zero ns/op", in: "BenchmarkA-2 10 0 ns/op 0 B/op 1 allocs/op\n", err: "ns/op missing or not a positive number"},
		{name: "negative ns/op", in: "BenchmarkA-2 10 -5 ns/op 0 B/op 1 allocs/op\n", err: "ns/op missing or not a positive number"},
		{name: "no ns/op", in: "BenchmarkA-2 10 7 B/op 1 allocs/op\n", err: "ns/op missing or not a positive number"},
		{name: "NaN ns/op", in: "BenchmarkA-2 10 NaN ns/op 0 B/op 1 allocs/op\n", err: "ns/op missing or not a positive number"},
		{name: "infinite ns/op", in: "BenchmarkA-2 10 +Inf ns/op 0 B/op 1 allocs/op\n", err: "ns/op missing or not a positive number"},
		{name: "no allocs/op", in: "BenchmarkA-2 10 100 ns/op\n", err: "no allocs/op (run with -benchmem)"},
		{name: "negative allocs/op", in: "BenchmarkA-2 10 100 ns/op -1 allocs/op\n", err: "allocs/op -1 is not a count"},
		{name: "NaN allocs/op", in: "BenchmarkA-2 10 100 ns/op NaN allocs/op\n", err: "allocs/op NaN is not a count"},
		{
			name: "log line interleaved with a result",
			in: "BenchmarkRegister-2   \ttime=2026-10-17T07:35:23Z level=INFO msg=\"tenant registered\" tenant=bench1\n" +
				"   10000\t   1228553 ns/op\t  302595 B/op\t     985 allocs/op\n",
			err: "line 1: malformed",
		},
		{name: "name alone", in: "BenchmarkA\n", err: "line 1: malformed result"},
		{name: "bad number", in: "BenchmarkA-2 10 1e3x ns/op 1 allocs/op\n", err: "malformed ns/op value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse(strings.NewReader(tc.in))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("result %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestParseGoTestOutput reads unedited `go test -run '^$' -bench ...
// -benchmem` output over two packages: a goos/goarch/pkg/cpu block per
// package, results with the -2 GOMAXPROCS suffix, PASS and ok lines.
func TestParseGoTestOutput(t *testing.T) {
	data, err := os.ReadFile("testdata/gotest.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := parse(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"BenchmarkRingLookup": true, "BenchmarkRingBuild": true,
		"BenchmarkSpanDisabledNoop": true, "BenchmarkTraceparentInject": true,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(got), len(want), got)
	}
	for _, r := range got {
		if !want[r.Name] {
			t.Errorf("unexpected result %q", r.Name)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("%s: ns/op %v", r.Name, r.NsPerOp)
		}
	}
	// The gate reads the parsed run against itself as a pass.
	for _, d := range Compare(got, got, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10}) {
		if d.Failed {
			t.Errorf("self-comparison failed: %+v", d)
		}
	}
}

// TestMedians: an odd count of runs gates on the middle run's ns/op and
// allocs/op, an even count on the mean of the middle two.
func TestMedians(t *testing.T) {
	cases := []struct {
		name   string
		runs   []Result
		ns     float64
		allocs float64
	}{
		{"one run", []Result{res("A", 70, 3)}, 70, 3},
		{"odd count", []Result{res("A", 900, 4), res("A", 100, 6), res("A", 120, 5)}, 120, 5},
		{"even count", []Result{res("A", 900, 4), res("A", 100, 6), res("A", 120, 5), res("A", 140, 5)}, 130, 5},
		{"even count, fractional allocs", []Result{res("A", 100, 4), res("A", 200, 5)}, 150, 4.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := medians(tc.runs)
			if len(got) != 1 || got[0].NsPerOp != tc.ns || got[0].AllocsPerOp != tc.allocs {
				t.Errorf("medians = %+v, want ns/op %v and allocs/op %v", got, tc.ns, tc.allocs)
			}
		})
	}
}

// TestCompareSingleBaselineAgainstRepeatedRun: a one-line baseline gates the
// median of a repeated run, so one slow run of three passes and two fail.
func TestCompareSingleBaselineAgainstRepeatedRun(t *testing.T) {
	base, err := parse(strings.NewReader("BenchmarkA-2 10 1000 ns/op 0 B/op 10 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	gate := Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10}
	for _, tc := range []struct {
		name, run string
		fail      bool
	}{
		{"one slow run", "BenchmarkA-2 10 1000 ns/op 0 B/op 10 allocs/op\nBenchmarkA-2 10 2500 ns/op 0 B/op 10 allocs/op\nBenchmarkA-2 10 1100 ns/op 0 B/op 10 allocs/op\n", false},
		{"two slow runs", "BenchmarkA-2 10 1000 ns/op 0 B/op 10 allocs/op\nBenchmarkA-2 10 2500 ns/op 0 B/op 10 allocs/op\nBenchmarkA-2 10 1400 ns/op 0 B/op 10 allocs/op\n", true},
		{"allocs median grown", "BenchmarkA-2 10 1000 ns/op 0 B/op 12 allocs/op\nBenchmarkA-2 10 1000 ns/op 0 B/op 12 allocs/op\nBenchmarkA-2 10 1000 ns/op 0 B/op 10 allocs/op\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := parse(strings.NewReader(tc.run))
			if err != nil {
				t.Fatal(err)
			}
			if d := find(t, Compare(base, cur, gate), "BenchmarkA"); d.Failed != tc.fail {
				t.Errorf("verdict %q (current ns/op %v), want failed=%v", d.Verdict, d.CurNs, tc.fail)
			}
		})
	}
}
