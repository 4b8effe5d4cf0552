package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// set is a series of runs of one commit, as -repeat writes it.
type set struct {
	Runs []*Result `json:"runs"`
}

// repeatRuns runs every workload n times, seeds cfg.seed..cfg.seed+n-1,
// interleaving workloads so slow drift on the machine spreads over all of
// them, writes the set and prints each metric's median, quartiles and
// spread against its bound.
func repeatRuns(ctx context.Context, r *runner, names []string, cfg runConfig, n int, out string) int {
	var s set
	exit := 0
	for i := 0; i < n; i++ {
		for _, name := range names {
			c := cfg
			c.workload, c.seed = name, cfg.seed+int64(i)
			res, err := r.run(ctx, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if err := r.report(res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				exit = 1
			}
			s.Runs = append(s.Runs, sanitize(res))
		}
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err == nil {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(r.out, "# %d runs per workload written to %s\n", n, out)
	fmt.Fprintf(r.out, "# %-13s %-20s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		for _, m := range r.spec.EndToEnd {
			v := s.values(name, m.Name)
			q1, med, q3 := quartiles(v)
			fmt.Fprintf(r.out, "# %-13s %-20s %12.5g %12.5g %12.5g %7.2f%% %7.2f%%\n",
				name, m.Name, q1, med, q3, 100*relSpread(v), 100**m.Bound)
		}
	}
	return exit
}

// values returns a metric's readings for one workload, ordered by seed so
// two sets pair run for run.
func (s *set) values(workload, metric string) []float64 {
	var runs []*Result
	for _, r := range s.Runs {
		if r.Workload == workload {
			if _, ok := r.Metrics[metric]; ok {
				runs = append(runs, r)
			}
		}
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// loadSet reads a set file; "file#N" selects entry N of a file holding
// {"sets": [...]}, such as bench/baseline.json.
func loadSet(path string) (*set, error) {
	file, index, many := strings.Cut(path, "#")
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	if !many {
		var s set
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %v", file, err)
		}
		return &s, nil
	}
	var b struct {
		Sets []set `json:"sets"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", file, err)
	}
	i, err := strconv.Atoi(index)
	if err != nil || i < 0 || i >= len(b.Sets) {
		return nil, fmt.Errorf("%s: no set %q", file, index)
	}
	return &b.Sets[i], nil
}

// compareSets reports, for each workload and end-to-end metric, both
// sides' median and quartiles, the share of seed-paired runs the change
// won, and a verdict. It exits non-zero when any pair regressed or could
// not be resolved.
func compareSets(w io.Writer, spec *Spec, parentPath, changePath string) int {
	parent, err := loadSet(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	change, err := loadSet(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "%-13s %-20s %-32s %-32s %5s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	counts := map[string]int{}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := parent.values(wl.Name, m.Name), change.values(wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			won, v := judge(m, p, c)
			counts[v]++
			fmt.Fprintf(w, "%-13s %-20s %-32s %-32s %5.2f %s\n", wl.Name, m.Name, summary(p), summary(c), won, v)
		}
	}
	fmt.Fprintf(w, "improved %d, unchanged %d, regressed %d, unresolved %d\n",
		counts["improved"], counts["unchanged"], counts["regressed"], counts["unresolved"])
	if counts["regressed"]+counts["unresolved"] > 0 {
		return 1
	}
	return 0
}

func summary(v []float64) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}

// judge applies the gain and regression rules to paired runs:
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither) and the medians differ by more than the parent's
//     interquartile distance;
//   - unresolved: either side's spread is wider than the bound, unless
//     every change run reads better than every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound's share of it;
//   - unchanged: otherwise.
func judge(m MetricSpec, parent, change []float64) (won float64, verdict string) {
	better := func(a, b float64) bool {
		if m.lowerIsBetter() {
			return a < b
		}
		return a > b
	}
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	won = float64(wins) / float64(pairs)
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	gain := cmed - pmed
	if m.lowerIsBetter() {
		gain = -gain
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	bound := *m.Bound
	switch {
	case won >= 0.9 && gain > pq3-pq1:
		return won, "improved"
	case math.Max(relSpread(parent), relSpread(change)) > bound && !allBetter:
		return won, "unresolved"
	case -gain > bound*math.Abs(pmed):
		return won, "regressed"
	}
	return won, "unchanged"
}
