package automaton

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/spider"
	"repro/internal/sqlir"
)

// refAbstract, refKey, refBuild and refMatch are the automaton Match and
// Build replaced: each level's states came from the coarser level's nested
// Abstract passes, and a path key was joined into a fresh string.
func refAbstract(tokens []string, level Level) []string {
	switch level {
	case Detail:
		return append([]string(nil), tokens...)
	case Keywords:
		var out []string
		for _, t := range tokens {
			if t == "_" || t == "(" || t == ")" {
				continue
			}
			out = append(out, t)
		}
		return out
	case Structure:
		var out []string
		for _, t := range refAbstract(tokens, Keywords) {
			if c, ok := structureClass[t]; ok {
				out = append(out, c)
			} else {
				out = append(out, t)
			}
		}
		return out
	case Clause:
		var out []string
		for _, t := range refAbstract(tokens, Structure) {
			if clauseKeep[t] {
				out = append(out, t)
			}
		}
		return out
	}
	return nil
}

func refKey(states []string) string {
	return "<START> " + strings.Join(states, " ") + " <END>"
}

func refBuild(level Level, demoSkeletons [][]string) *Automaton {
	a := &Automaton{Level: level, ends: map[string][]int{}, vocab: map[string]bool{}}
	for idx, toks := range demoSkeletons {
		states := refAbstract(toks, level)
		for _, s := range states {
			a.vocab[s] = true
		}
		k := refKey(states)
		a.ends[k] = append(a.ends[k], idx)
	}
	return a
}

func refMatch(a *Automaton, predTokens []string) []int {
	states := refAbstract(predTokens, a.Level)
	kept := states[:0:0]
	for _, s := range states {
		if a.vocab[s] {
			kept = append(kept, s)
		}
	}
	return a.ends[refKey(kept)]
}

// checkAgainstReference builds each level's automaton over demos both ways
// and requires the same paths and vocabulary, and the same Abstract states
// and Match result for every prediction.
func checkAgainstReference(t *testing.T, demos, preds [][]string) {
	t.Helper()
	for l := Detail; l <= Clause; l++ {
		got, want := Build(l, demos), refBuild(l, demos)
		if !reflect.DeepEqual(got.ends, want.ends) || !reflect.DeepEqual(got.vocab, want.vocab) {
			t.Fatalf("level %d: Build made %d paths over %d states, the reference %d over %d",
				l, len(got.ends), len(got.vocab), len(want.ends), len(want.vocab))
		}
		for _, p := range preds {
			if g, w := Abstract(p, l), refAbstract(p, l); !reflect.DeepEqual(g, w) {
				t.Fatalf("level %d, skeleton %q: Abstract = %q, reference %q", l, p, g, w)
			}
			if g, w := got.Match(p), refMatch(want, p); !reflect.DeepEqual(g, w) {
				t.Fatalf("level %d, skeleton %q: Match = %v, reference %v", l, p, g, w)
			}
		}
	}
}

// paperHierarchyCase returns the paper-scale corpus's training skeletons
// and every dev task's top-3 predicted skeletons and gold skeleton.
func paperHierarchyCase(tb testing.TB) (demos, preds [][]string) {
	tb.Helper()
	c := spider.GenerateSmall(1, 1.0)
	for _, e := range c.Train.Examples {
		demos = append(demos, sqlir.Skeleton(e.Gold))
	}
	model := predictor.Train(c.Train.Examples)
	for _, e := range c.Dev.Examples {
		for _, p := range model.Predict(e.NL, 3) {
			preds = append(preds, p.Tokens)
		}
		preds = append(preds, sqlir.Skeleton(e.Gold))
	}
	return demos, preds
}

// TestMatchMatchesReferenceOnCorpus holds Build, Abstract and Match to the
// reference over the paper-scale training skeletons and every dev task's
// top-3 predicted skeletons (and its gold skeleton) at all four levels.
func TestMatchMatchesReferenceOnCorpus(t *testing.T) {
	demos, preds := paperHierarchyCase(t)
	checkAgainstReference(t, demos, preds)
}

// TestMatchEdgeCases adds what the corpus lacks: empty skeletons (the
// "<START>  <END>" path), skeletons every level but Detail drops
// entirely, out-of-vocabulary and repeated tokens, and a key longer than
// Match's stack buffer.
func TestMatchEdgeCases(t *testing.T) {
	long := toks("SELECT a FROM t WHERE b = 1")
	for len(strings.Join(long, " ")) < 2*matchKeySize {
		long = append(long, "AND", "_", "=", "_")
	}
	demos := [][]string{
		nil,
		{"_", "(", ")"},
		toks("SELECT COUNT(*) FROM t"),
		long,
		{"SELECT", "SELECT", "_", "_"},
	}
	preds := append(demos, [][]string{
		{},
		{"BOGUS"},
		{"(", "BOGUS", ")"},
		append(toks("SELECT MAX(a) FROM t"), "BOGUS"),
		{"SELECT", "_", "SELECT", "_"},
	}...)
	checkAgainstReference(t, demos, preds)
	if got := Build(Clause, demos).Match([]string{"_"}); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("empty Clause path matched %v, want the two demonstrations with no Clause state", got)
	}
}

// fuzzVocab is the token alphabet FuzzMatch draws skeletons from: tokens
// each level treats differently, and one no demonstration can hold.
var fuzzVocab = []string{
	"SELECT", "_", "FROM", "WHERE", "=", ">", "LIKE", "NOT IN", "COUNT", "MAX",
	"(", ")", "+", "GROUP BY", "HAVING", "ORDER BY", "DESC", "LIMIT",
	"UNION", "INTERSECT", "EXCEPT", "JOIN", "ON", "AND", "BOGUS",
}

// fuzzSkeletons decodes b into skeletons: each byte below len(fuzzVocab)
// is a token of the current skeleton, and any other byte ends it.
func fuzzSkeletons(b []byte) [][]string {
	out := [][]string{nil}
	for _, c := range b {
		if int(c) < len(fuzzVocab) {
			out[len(out)-1] = append(out[len(out)-1], fuzzVocab[c])
		} else {
			out = append(out, nil)
		}
	}
	return out
}

// FuzzMatch holds Build, Abstract and Match to the reference over random
// demonstration skeletons and predictions.
func FuzzMatch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 3, 1, 4, 1, 255, 0, 1, 2, 1}, []byte{0, 1, 2, 1, 3, 1, 5, 1})
	f.Add([]byte{0, 8, 10, 1, 11, 2, 1, 255, 255, 1, 10, 11}, []byte{24, 255, 10, 11, 255})
	f.Fuzz(func(t *testing.T, demos, preds []byte) {
		d := fuzzSkeletons(demos)
		checkAgainstReference(t, d, append(fuzzSkeletons(preds), d...))
	})
}

// TestMatchAllocatesNothing pins Match at zero allocations over every dev
// task's top-3 predicted skeletons at all four levels.
func TestMatchAllocatesNothing(t *testing.T) {
	demos, preds := paperHierarchyCase(t)
	h := BuildHierarchy(demos)
	matched := 0
	allocs := testing.AllocsPerRun(3, func() {
		matched = 0
		for _, a := range h.Levels {
			for _, p := range preds {
				matched += len(a.Match(p))
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Match allocates %v times per pass over %d skeletons at %d levels", allocs, len(preds), NumLevels)
	}
	if matched == 0 {
		t.Fatal("no skeleton matched")
	}
}
