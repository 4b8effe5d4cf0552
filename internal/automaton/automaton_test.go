package automaton

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqlir"
)

func toks(sql string) []string {
	return sqlir.Skeleton(sqlir.MustParse(sql))
}

// Figure 6 of the paper: the four abstractions of the EXCEPT-join skeleton.
func TestAbstractPaperFigure6(t *testing.T) {
	detail := toks("SELECT Country FROM TV_CHANNEL EXCEPT SELECT T1.Country FROM TV_CHANNEL AS T1 JOIN CARTOON AS T2 ON T1.id = T2.Channel WHERE T2.Written_by = 'Todd Casey'")

	if got, want := strings.Join(Abstract(detail, Detail), " "),
		"SELECT _ FROM _ EXCEPT SELECT _ FROM _ JOIN _ ON _ = _ WHERE _ = _"; got != want {
		t.Errorf("Detail:\n got %q\nwant %q", got, want)
	}
	if got, want := strings.Join(Abstract(detail, Keywords), " "),
		"SELECT FROM EXCEPT SELECT FROM JOIN ON = WHERE ="; got != want {
		t.Errorf("Keywords:\n got %q\nwant %q", got, want)
	}
	if got, want := strings.Join(Abstract(detail, Structure), " "),
		"SELECT FROM <IUE> SELECT FROM JOIN ON <CMP> WHERE <CMP>"; got != want {
		t.Errorf("Structure:\n got %q\nwant %q", got, want)
	}
	if got, want := strings.Join(Abstract(detail, Clause), " "),
		"SELECT FROM <IUE> SELECT FROM WHERE"; got != want {
		t.Errorf("Clause:\n got %q\nwant %q", got, want)
	}
}

func TestStructureMappingRules(t *testing.T) {
	// Figure 7: AGG, CMP, IUE classes.
	sk := toks("SELECT COUNT(name) FROM t WHERE age NOT IN (SELECT age FROM u) UNION SELECT MAX(x) FROM v")
	states := Abstract(sk, Structure)
	joined := strings.Join(states, " ")
	for _, want := range []string{"<AGG>", "<CMP>", "<IUE>"} {
		if !strings.Contains(joined, want) {
			t.Errorf("structure abstraction missing %s: %q", want, joined)
		}
	}
	for _, banned := range []string{"COUNT", "MAX", "NOT IN", "UNION"} {
		if containsToken(states, banned) {
			t.Errorf("structure abstraction leaked %q: %q", banned, joined)
		}
	}
}

func containsToken(states []string, tok string) bool {
	for _, s := range states {
		if s == tok {
			return true
		}
	}
	return false
}

func TestDistinctSkeletonsDistinctPaths(t *testing.T) {
	a := toks("SELECT name FROM t WHERE x = 1")
	b := toks("SELECT name FROM t WHERE x > 1")
	auto := Build(Detail, [][]string{a, b})
	if len(auto.ends) != 2 {
		t.Errorf("Detail automaton states = %d, want 2", len(auto.ends))
	}
	// At Structure level both collapse to the same <CMP> path.
	autoS := Build(Structure, [][]string{a, b})
	if len(autoS.ends) != 1 {
		t.Errorf("Structure automaton states = %d, want 1", len(autoS.ends))
	}
}

func TestMatchExactOnly(t *testing.T) {
	demos := [][]string{
		toks("SELECT name FROM t WHERE x = 1"),
		toks("SELECT name FROM t ORDER BY x DESC LIMIT 3"),
		toks("SELECT name FROM t WHERE x = 1 AND y = 2"),
	}
	auto := Build(Detail, demos)
	got := auto.Match(toks("SELECT a FROM b WHERE c = 5"))
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Match = %v, want [0]", got)
	}
	if auto.Match(toks("SELECT a FROM b WHERE c > 5")) != nil {
		t.Error("different comparison op should not match at Detail level")
	}
}

// The paper's DAIL-SQL critique: same keyword multiset, different order must
// NOT match (order-sensitivity is the automaton's whole point).
func TestOrderSensitivity(t *testing.T) {
	gold := toks("SELECT Country FROM t EXCEPT SELECT Country FROM t AS T1 JOIN u AS T2 ON T1.id = T2.tid WHERE T2.w = 'x'")
	reversed := toks("SELECT Country FROM t AS T1 JOIN u AS T2 ON T1.id = T2.tid WHERE T2.w = 'x' EXCEPT SELECT Country FROM t")
	for l := Detail; l <= Structure; l++ {
		auto := Build(l, [][]string{reversed})
		if auto.Match(gold) != nil {
			t.Errorf("level %d: reversed-order skeleton matched; automaton must be order-sensitive", l)
		}
	}
}

func TestOOVTokensStripped(t *testing.T) {
	demos := [][]string{toks("SELECT name FROM t WHERE x = 1")}
	auto := Build(Detail, demos)
	// A predicted skeleton with a stray token the automaton never saw.
	pred := append(toks("SELECT name FROM t WHERE x = 1"), "BOGUS")
	if got := auto.Match(pred); len(got) != 1 {
		t.Errorf("OOV token not stripped before matching: %v", got)
	}
}

func TestHierarchyStateCountsDecrease(t *testing.T) {
	var demos [][]string
	for _, sql := range []string{
		"SELECT a FROM t WHERE b = 1",
		"SELECT a FROM t WHERE b > 1",
		"SELECT a FROM t WHERE b < 1",
		"SELECT a, b FROM t WHERE c = 1",
		"SELECT COUNT(*) FROM t",
		"SELECT MAX(a) FROM t",
		"SELECT a FROM t ORDER BY b DESC LIMIT 1",
		"SELECT a FROM t ORDER BY b ASC LIMIT 2",
		"SELECT a FROM t GROUP BY a HAVING COUNT(*) > 2",
		"SELECT a FROM t UNION SELECT a FROM u",
		"SELECT a FROM t INTERSECT SELECT a FROM u",
		"SELECT a FROM t EXCEPT SELECT a FROM u",
	} {
		demos = append(demos, toks(sql))
	}
	h := BuildHierarchy(demos)
	var counts [NumLevels]int // distinct <END> states (paths) per level, finest first
	for i, a := range h.Levels {
		counts[i] = len(a.ends)
	}
	for i := 1; i < NumLevels; i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("level %d has more states (%d) than level %d (%d); abstraction must compress",
				i+1, counts[i], i, counts[i-1])
		}
	}
	if counts[3] >= counts[0] {
		t.Errorf("Clause level did not compress: %v", counts)
	}
}

func TestMatchReturnsAllSharers(t *testing.T) {
	sk := toks("SELECT a FROM t WHERE b = 1")
	auto := Build(Detail, [][]string{sk, sk, sk})
	if got := auto.Match(sk); len(got) != 3 {
		t.Errorf("want all 3 sharers, got %v", got)
	}
}
