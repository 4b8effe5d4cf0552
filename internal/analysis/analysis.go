// Package analysis categorizes translation failures the way the paper's
// discussion does: surface-only mismatches (EM fails, EX passes), operator-
// composition errors (the skeleton diverges from gold at Structure level),
// schema-linking errors (same composition, different schema items or
// values), and execution errors bucketed by the Table 2 hallucination
// classes. It turns benchmark runs into the diagnostic evidence behind
// Figure 1.
package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// Category is a failure class.
type Category string

// Failure categories, from benign to severe.
const (
	Correct          Category = "correct"           // EM and EX both pass
	SurfaceOnly      Category = "surface-only"      // EX passes, EM fails (equivalent form)
	LuckyExecution   Category = "lucky-execution"   // EX passes, composition differs (EM+structure fail)
	LinkingError     Category = "linking-error"     // composition right, wrong items/values
	CompositionError Category = "composition-error" // skeleton diverges at Structure level
	Unparseable      Category = "unparseable"       // prediction does not parse
	ExecUnknownItem  Category = "exec-unknown-item" // unknown table/column at execution
	ExecAmbiguous    Category = "exec-ambiguous"    // ambiguous column
	ExecBadFunction  Category = "exec-bad-function" // unsupported function / aggregate arity
	ExecOther        Category = "exec-other"        // other execution failure
)

// Classify buckets one (prediction, gold) pair.
func Classify(e *spider.Example, predSQL string) Category {
	pred, err := sqlir.Parse(predSQL)
	if err != nil {
		return Unparseable
	}
	if _, err := sqlexec.Exec(e.DB, pred); err != nil {
		switch {
		case errors.Is(err, sqlexec.ErrUnknownTable), errors.Is(err, sqlexec.ErrUnknownColumn):
			return ExecUnknownItem
		case errors.Is(err, sqlexec.ErrAmbiguousColumn):
			return ExecAmbiguous
		case errors.Is(err, sqlexec.ErrUnknownFunction), errors.Is(err, sqlexec.ErrAggArity):
			return ExecBadFunction
		default:
			return ExecOther
		}
	}
	em := eval.ExactSetMatch(pred, e.Gold)
	ex := eval.ExecutionMatch(e.DB, predSQL, e.GoldSQL)
	sameComposition := structureEqual(pred, e.Gold)
	switch {
	case em && ex:
		return Correct
	case ex && sameComposition:
		return SurfaceOnly
	case ex:
		return LuckyExecution
	case sameComposition:
		return LinkingError
	default:
		return CompositionError
	}
}

// structureEqual compares two queries at the Structure abstraction level —
// the granularity at which the paper defines "requisite logical operator
// composition".
func structureEqual(a, b *sqlir.Select) bool {
	sa := automaton.Abstract(sqlir.Skeleton(a), automaton.Structure)
	sb := automaton.Abstract(sqlir.Skeleton(b), automaton.Structure)
	return strings.Join(sa, " ") == strings.Join(sb, " ")
}

// Report aggregates categories over a benchmark run.
type Report struct {
	Strategy string
	Counts   map[Category]int
	Total    int
	// PerClass tracks composition errors per gold composition class — the
	// evidence behind "LLMs fail on exclusion/superlative compositions".
	PerClass map[spider.CompositionClass]int
}

// Run translates every example (up to limit; 0 = all) and classifies the
// outcomes.
func Run(tr core.Translator, b *spider.Benchmark, limit int) *Report {
	examples := b.Examples
	if limit > 0 && limit < len(examples) {
		examples = examples[:limit]
	}
	r := &Report{
		Strategy: tr.Name(),
		Counts:   map[Category]int{},
		PerClass: map[spider.CompositionClass]int{},
		Total:    len(examples),
	}
	for _, e := range examples {
		res := tr.Translate(e)
		cat := Classify(e, res.SQL)
		r.Counts[cat]++
		if cat == CompositionError || cat == LuckyExecution {
			r.PerClass[e.Class]++
		}
	}
	return r
}

// String renders the report, most frequent category first.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "failure analysis: %s over %d examples\n", r.Strategy, r.Total)
	type kv struct {
		c Category
		n int
	}
	var rows []kv
	for c, n := range r.Counts {
		rows = append(rows, kv{c, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].c < rows[j].c
	})
	for _, row := range rows {
		fmt.Fprintf(&sb, "  %-20s %4d (%5.1f%%)\n", row.c, row.n, 100*float64(row.n)/float64(r.Total))
	}
	if len(r.PerClass) > 0 {
		sb.WriteString("  composition errors by gold class:\n")
		var classes []string
		for c := range r.PerClass {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Fprintf(&sb, "    %-18s %d\n", c, r.PerClass[spider.CompositionClass(c)])
		}
	}
	return sb.String()
}
