package selection

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/sqlir"
)

func toks(sql string) []string {
	return sqlir.Skeleton(sqlir.MustParse(sql))
}

func demoSet() ([][]string, *automaton.Hierarchy) {
	demos := [][]string{
		toks("SELECT a FROM t WHERE b = 1"),                        // 0: matches pred0 at Detail
		toks("SELECT a FROM t WHERE b = 2"),                        // 1: same path as 0
		toks("SELECT a FROM t WHERE b > 3"),                        // 2: Structure-level cousin
		toks("SELECT a FROM t ORDER BY b DESC LIMIT 1"),            // 3: matches pred1 at Detail
		toks("SELECT COUNT(*) FROM t"),                             // 4: unrelated
		toks("SELECT a FROM t EXCEPT SELECT a FROM u WHERE c = 1"), // 5: unrelated
	}
	return demos, automaton.BuildHierarchy(demos)
}

func TestSelectPrefersFinestLevelTopPrediction(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{
		toks("SELECT x FROM y WHERE z = 9"),             // top-1
		toks("SELECT x FROM y ORDER BY z DESC LIMIT 5"), // top-2
	}
	got := slices.Collect(Select(h, preds, Options{}))
	if len(got) == 0 || got[0] != 0 {
		t.Fatalf("first selected should be demo 0 (Detail match of top-1), got %v", got)
	}
	// Demo 3 (Detail match of top-2) must come before Structure-level
	// cousins of top-1 appear via higher-abstraction cells... by the matrix
	// order, cell 2 (Detail/top-2) precedes cell 5+ (Keywords level).
	pos := map[int]int{}
	for i, d := range got {
		pos[d] = i
	}
	if pos[3] > pos[2] {
		t.Errorf("Detail match of top-2 (demo 3) should precede Structure cousin (demo 2): %v", got)
	}
}

func TestSelectDeduplicates(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	got := slices.Collect(Select(h, preds, Options{}))
	seen := map[int]bool{}
	for _, d := range got {
		if seen[d] {
			t.Fatalf("duplicate demo %d in %v", d, got)
		}
		seen[d] = true
	}
}

func TestSelectExhaustsAllMatches(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	got := slices.Collect(Select(h, preds, Options{}))
	// Demos 0,1 (Detail), 2 (Structure <CMP> path), 3/4/5 unmatched unless a
	// coarser level path coincides. At minimum 0,1,2 must all be present.
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, d := range got {
		delete(want, d)
	}
	if len(want) != 0 {
		t.Errorf("missing matches %v in %v", want, got)
	}
}

func TestPoliciesTerminate(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9"), toks("SELECT COUNT(*) FROM y")}
	for _, p := range []Policy{Linear(1, 1), Linear(3, 3), Exp(2, 2), Linear(9, 1)} {
		got := slices.Collect(Select(h, preds, Options{Policy: p}))
		if len(got) == 0 {
			t.Errorf("policy %s selected nothing", p.Name)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want string
	}{
		{DefaultPolicy(), "Linear-1"},
		{Linear(1, 1), "Linear-1"},
		{Linear(1, 2), "Linear-2"},
		{Linear(3, 3), "Linear-3"},
		{Linear(2, 10), "Linear-10"},
		{Exp(1, 2), "Exp-2"},
		{Exp(1, 3), "Exp-3"},
		{Exp(4, 10), "Exp-10"},
	} {
		if c.p.Name != c.want {
			t.Errorf("policy named %q, want %q", c.p.Name, c.want)
		}
	}
}

func TestMaskLevelsIgnoresFineMatches(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	// Masking Detail+Keywords: selection may only use Structure/Clause cells,
	// so the Detail-exact demos can still appear but only via coarser paths;
	// crucially Select must not panic and must return something.
	got := slices.Collect(Select(h, preds, Options{MaskLevels: 2}))
	if len(got) == 0 {
		t.Error("masked selection returned nothing; Structure level should still match")
	}
	// Masking all levels yields nothing (no cells left).
	got = slices.Collect(Select(h, preds, Options{MaskLevels: 4}))
	if len(got) != 0 {
		t.Errorf("all-masked selection should be empty, got %v", got)
	}
}

func TestDropSkeletonNoise(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{
		toks("SELECT x FROM y WHERE z = 9"),
		toks("SELECT x FROM y ORDER BY z DESC LIMIT 5"),
	}
	rng := rand.New(rand.NewSource(1))
	// With DropProb=1 one prediction is always dropped; selection still works.
	got := slices.Collect(Select(h, preds, Options{DropProb: 1, Rng: rng}))
	if len(got) == 0 {
		t.Error("drop-noise selection returned nothing")
	}
}

func TestRandomFillUsesPool(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	rng := rand.New(rand.NewSource(2))
	got := slices.Collect(Select(h, preds, Options{Rng: rng, FillPool: []int{0, 1, 2, 3, 4, 5}}))
	if len(got) != 6 {
		t.Errorf("fill should extend selection to all 6 demos, got %v", got)
	}
}

func TestDeterministicWithoutRng(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	a := slices.Collect(Select(h, preds, Options{}))
	b := slices.Collect(Select(h, preds, Options{}))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("selection not deterministic: %v vs %v", a, b)
	}
}

// skeletonVocab is the token alphabet of the random hierarchies: keywords
// every abstraction level treats differently (placeholders, operators of
// each Structure class, clauses Clause keeps or drops).
var skeletonVocab = []string{
	"_", "WHERE", "=", ">", "LIKE", "COUNT", "MAX", "(", ")", "+",
	"GROUP BY", "HAVING", "ORDER BY", "DESC", "LIMIT", "INTERSECT", "EXCEPT",
}

func randomSkeleton(rng *rand.Rand) []string {
	out := []string{"SELECT", "_", "FROM", "_"}
	for n := rng.Intn(6); n > 0; n-- {
		out = append(out, skeletonVocab[rng.Intn(len(skeletonVocab))])
	}
	return out
}

// randomCase draws a hierarchy, predictions and options. Demonstrations
// reuse a few base skeletons so that cells hold several matches and
// overlap across levels and predictions; a seed rather than an Rng is
// returned so each Select can draw from a fresh, identical source.
func randomCase(rng *rand.Rand) (h *automaton.Hierarchy, preds [][]string, opts Options, seed int64) {
	bases := make([][]string, 1+rng.Intn(12))
	for i := range bases {
		bases[i] = randomSkeleton(rng)
	}
	demos := make([][]string, 1+rng.Intn(80))
	for i := range demos {
		if rng.Intn(4) == 0 {
			demos[i] = randomSkeleton(rng)
		} else {
			demos[i] = bases[rng.Intn(len(bases))]
		}
	}
	h = automaton.BuildHierarchy(demos)
	for k := 1 + rng.Intn(4); k > 0; k-- {
		if rng.Intn(3) == 0 {
			preds = append(preds, randomSkeleton(rng))
		} else {
			preds = append(preds, bases[rng.Intn(len(bases))])
		}
	}
	if p0, step := rng.Intn(4), 1+rng.Intn(3); rng.Intn(2) == 0 {
		opts.Policy = Linear(p0, step)
	} else {
		opts.Policy = Exp(p0, step)
	}
	opts.MaskLevels = rng.Intn(5)
	opts.DropProb = []float64{0, 0.5, 1}[rng.Intn(3)]
	if rng.Intn(3) > 0 {
		opts.FillPool = rng.Perm(len(demos))[:rng.Intn(len(demos)+1)]
	}
	return h, preds, opts, rng.Int63()
}

// withRng returns opts drawing from a fresh source seeded with seed.
func withRng(opts Options, seed int64) Options {
	opts.Rng = rand.New(rand.NewSource(seed))
	return opts
}

// TestLazyPrefixMatchesFullOrder is the laziness property: for every k,
// the first k demonstrations pulled from a fresh Select are the first k of
// the fully collected order, whatever the hierarchy, predictions, policy,
// masking, drop noise and fill pool.
func TestLazyPrefixMatchesFullOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for c := 0; c < 300; c++ {
		h, preds, opts, seed := randomCase(rng)
		full := slices.Collect(Select(h, preds, withRng(opts, seed)))
		seen := map[int]bool{}
		for _, d := range full {
			if seen[d] {
				t.Fatalf("case %d: duplicate demo %d in %v", c, d, full)
			}
			seen[d] = true
		}
		for k := 0; k <= len(full); k++ {
			var got []int
			if k > 0 {
				for d := range Select(h, preds, withRng(opts, seed)) {
					got = append(got, d)
					if len(got) == k {
						break
					}
				}
			}
			if !slices.Equal(got, full[:k]) {
				t.Fatalf("case %d (%s, mask %d, drop %v, pool %d): first %d pulled = %v, want %v",
					c, opts.Policy.Name, opts.MaskLevels, opts.DropProb, len(opts.FillPool), k, got, full[:k])
			}
		}
	}
}

// TestCoveredPrefixDrawsNoFill pulls exactly the demonstrations the
// matches cover: that must cost the same whatever the fill pool's size,
// and leave the caller's rng untouched, because the fill permutation is
// drawn only when a consumer pulls past the matches.
func TestCoveredPrefixDrawsNoFill(t *testing.T) {
	demos, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	covered := len(slices.Collect(Select(h, preds, Options{})))
	if covered == 0 {
		t.Fatal("fixture matches nothing")
	}
	pull := func(n int, pool []int, rng *rand.Rand) {
		got := 0
		for range Select(h, preds, Options{Rng: rng, FillPool: pool}) {
			if got++; got == n {
				break
			}
		}
		if got != n {
			t.Fatalf("pulled %d demonstrations, want %d", got, n)
		}
	}
	pool := func(n int) []int { // n entries, each a demonstration of h
		out := make([]int, n)
		for i := range out {
			out[i] = i % len(demos)
		}
		return out
	}
	small, large := pool(100), pool(100_000)

	rng := rand.New(rand.NewSource(5))
	allocsSmall := testing.AllocsPerRun(20, func() { pull(covered, small, rng) })
	allocsLarge := testing.AllocsPerRun(20, func() { pull(covered, large, rng) })
	if allocsLarge > allocsSmall {
		t.Errorf("covered prefix allocates %v with a 100,000-entry pool, %v with 100", allocsLarge, allocsSmall)
	}
	untouched := rand.New(rand.NewSource(5))
	if got, want := rng.Int63(), untouched.Int63(); got != want {
		t.Errorf("covered prefix drew from the caller's rng")
	}

	// One more pull reaches the fill, which draws the permutation.
	rng = rand.New(rand.NewSource(5))
	pull(covered+1, small, rng)
	if rng.Int63() == rand.New(rand.NewSource(5)).Int63() {
		t.Errorf("pulling past the matches did not draw the fill permutation")
	}
}
