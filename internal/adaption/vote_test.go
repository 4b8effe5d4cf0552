package adaption

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlexec"
)

// referenceVote is the per-candidate vote Vote replaced: every sampled
// candidate is adapted, then executed again from its text through the
// shared plan cache, and counted. It returns the winner and its votes over
// all samples.
func referenceVote(db *schema.Database, candidates []string, fix bool) (string, int, bool) {
	f := &Fixer{DB: db}
	type entry struct {
		sql string
		sig string
	}
	var entries []entry
	counts := map[string]int{}
	for _, sql := range candidates {
		fixed := sql
		if fix {
			var res *sqlexec.Result
			if fixed, res = f.Adapt(sql); res == nil {
				continue
			}
		}
		res, err := sqlexec.Shared.Exec(db, fixed)
		if err != nil {
			continue
		}
		sig := Signature(res)
		entries = append(entries, entry{fixed, sig})
		counts[sig]++
	}
	if len(entries) == 0 {
		return "", 0, false
	}
	bestSig, bestCount := "", -1
	var sigs []string
	for s := range counts {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		if counts[s] > bestCount {
			bestSig, bestCount = s, counts[s]
		}
	}
	for _, e := range entries {
		if e.sig == bestSig {
			return e.sql, bestCount, true
		}
	}
	return entries[0].sql, bestCount, true
}

// votePool holds candidates for the fixture database, grouped by what
// adaption does with them. Several distinct texts share a result
// signature, so random draws tie on signature counts and the winner must
// be the first sample of the winning signature.
var votePool = struct {
	unparseable, repairable, unrepairable, valid []string
}{
	unparseable: []string{
		"garbage((",
		"SELECT FROM tv_channel",
		"",
	},
	// One per Table 2 class, then an unknown table and a query needing
	// several repairs.
	repairable: []string{
		"SELECT series_names FROM tv_channel",                                                // schema hallucination
		"SELECT T2.title FROM cartoon AS T1 JOIN tv_channel AS T2 ON T1.channel_id = T2.id",  // table-column mismatch
		"SELECT id FROM cartoon JOIN tv_channel ON channel_id = tv_channel.id",               // column ambiguity
		"SELECT country FROM tv_channel WHERE cartoon.written_by = 'Todd Casey'",             // missing table
		"SELECT CONCAT(series_name, ' ', country) FROM tv_channel",                           // function hallucination
		"SELECT COUNT(DISTINCT series_name, country) FROM tv_channel",                        // aggregation hallucination
		"SELECT country FROM tv_channels",                                                    // unknown table
		"SELECT CONCAT(series_names, countrys) FROM tv_channels",                             // several rounds
		"SELECT T1.title FROM cartoon AS T1 JOIN tv_channel AS T2 ON T1.channel_id = T2.ids", // join-key hallucination
	},
	unrepairable: []string{
		"SELECT country FROM tv_channel WHERE country + 1 > 2",
		"SELECT country FROM tv_channel UNION SELECT id, country FROM tv_channel",
	},
	valid: []string{
		"SELECT country FROM tv_channel",
		"SELECT country FROM tv_channel ORDER BY country ASC", // same signature as the unordered query
		"SELECT country FROM tv_channel ORDER BY country DESC",
		"SELECT country FROM tv_channel WHERE id = 1",
		"SELECT country FROM tv_channel WHERE id < 2",
		"SELECT series_name FROM tv_channel",
		"SELECT title FROM cartoon",
		"SELECT title FROM cartoon ORDER BY title DESC",
		"SELECT COUNT(*) FROM tv_channel",
		"SELECT COUNT(DISTINCT series_name) FROM tv_channel",
		"SELECT id FROM cartoon",
	},
}

func poolCandidates() []string {
	var all []string
	for _, g := range [][]string{votePool.unparseable, votePool.repairable, votePool.unrepairable, votePool.valid} {
		all = append(all, g...)
	}
	return all
}

// checkAdaptResult fails unless Adapt's result has the signature of
// executing the SQL Adapt returns, and a nil result means that SQL does not
// execute.
func checkAdaptResult(t *testing.T, db *schema.Database, candidate string) {
	t.Helper()
	f := &Fixer{DB: db}
	sql, res := f.Adapt(candidate)
	want, err := sqlexec.ExecSQL(db, sql)
	switch {
	case res == nil && err == nil:
		t.Errorf("Adapt(%q) reported failure, but %q executes", candidate, sql)
	case res != nil && err != nil:
		t.Errorf("Adapt(%q) returned a result, but %q fails: %v", candidate, sql, err)
	case res != nil && Signature(res) != Signature(want):
		t.Errorf("Adapt(%q): result signature %q, executing %q gives %q", candidate, Signature(res), sql, Signature(want))
	}
}

func TestAdaptReturnsItsExecution(t *testing.T) {
	db := fixture()
	for _, c := range poolCandidates() {
		checkAdaptResult(t, db, c)
	}
	f := &Fixer{DB: db}
	for _, c := range votePool.repairable {
		if _, res := f.Adapt(c); res == nil {
			t.Errorf("Adapt(%q) did not repair a repairable candidate", c)
		}
	}
	for _, c := range append(append([]string{}, votePool.unparseable...), votePool.unrepairable...) {
		if _, res := f.Adapt(c); res != nil {
			t.Errorf("Adapt(%q) executed a candidate that cannot be repaired", c)
		}
	}
}

// drawMultiset samples n candidates from a few pool entries, so draws hold
// duplicates and tie often.
func drawMultiset(rng *rand.Rand, pool []string) []string {
	picks := make([]string, 1+rng.Intn(5))
	for i := range picks {
		picks[i] = pool[rng.Intn(len(pool))]
	}
	out := make([]string, rng.Intn(31))
	for i := range out {
		out[i] = picks[rng.Intn(len(picks))]
	}
	return out
}

// drawSkewed is drawMultiset with one pick holding most samples, as in
// self-consistency sampling, so the vote is often decided before it runs
// every distinct candidate.
func drawSkewed(rng *rand.Rand, pool []string) []string {
	out := drawMultiset(rng, pool)
	major := pool[rng.Intn(len(pool))]
	share := 0.5 + 0.5*rng.Float64()
	for i := range out {
		if rng.Float64() < share {
			out[i] = major
		}
	}
	return out
}

func countDistinct(cands []string) int {
	return len(slices.Compact(slices.Sorted(slices.Values(cands))))
}

// checkVote fails unless Vote picks the per-candidate vote's winner for
// both fix values and reports counts consistent with it. It returns the
// outcomes, fix=true first.
func checkVote(t *testing.T, db *schema.Database, cands []string) [2]Outcome {
	t.Helper()
	distinct := countDistinct(cands)
	var outs [2]Outcome
	for i, fix := range []bool{true, false} {
		got, ok := Vote(db, cands, fix)
		want, wantVotes, wantOK := referenceVote(db, cands, fix)
		if got.SQL != want || ok != wantOK {
			t.Fatalf("Vote(fix=%v) = %q, %v; per-candidate vote = %q, %v\ncandidates: %q", fix, got.SQL, ok, want, wantOK, cands)
		}
		// Votes counts the candidates run, all of them unless the vote
		// stopped early.
		if got.Run > distinct || ok != (got.Votes > 0) || got.Votes > wantVotes ||
			got.Run == distinct && got.Votes != wantVotes {
			t.Fatalf("Vote(fix=%v) ran %d of %d distinct candidates with %d votes; the winner has %d\ncandidates: %q",
				fix, got.Run, distinct, got.Votes, wantVotes, cands)
		}
		outs[i] = got
	}
	return outs
}

func TestVoteMatchesPerCandidateVote(t *testing.T) {
	db := fixture()
	pool := poolCandidates()
	rng := rand.New(rand.NewSource(17))
	early := 0
	for trial := 0; trial < 3000; trial++ {
		draw := drawMultiset
		if trial%2 == 1 {
			draw = drawSkewed
		}
		cands := draw(rng, pool)
		if checkVote(t, db, cands)[0].Run < countDistinct(cands) {
			early++
		}
	}
	if early < 1000 {
		t.Errorf("the vote stopped early in %d of 3000 trials; the draws no longer reach the early exit", early)
	}
}

// FuzzVoteMatchesReference holds Vote to the per-candidate vote on
// multisets drawn from the pool with the fuzzed seed.
func FuzzVoteMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 17, 29} {
		f.Add(seed)
	}
	db := fixture()
	pool := poolCandidates()
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		draw := drawMultiset
		if rng.Intn(2) == 1 {
			draw = drawSkewed
		}
		checkVote(t, db, draw(rng, pool))
	})
}

// TestVoteDecisionBoundaries runs votes whose stop rule is decided, or
// just not decided, at a boundary. On the fixture, COUNT(*) FROM
// tv_channel has the smallest signature ("2") and country FROM tv_channel
// a larger one ("uk", "usa").
func TestVoteDecisionBoundaries(t *testing.T) {
	const (
		countries  = "SELECT country FROM tv_channel"
		count      = "SELECT COUNT(*) FROM tv_channel"
		countIDs   = "SELECT COUNT(id) FROM tv_channel"    // count's signature
		misspelled = "SELECT countrys FROM tv_channel"     // repairs to countries' signature
		repairable = "SELECT series_names FROM tv_channel" // repairs to its own signature
		broken     = "SELECT country FROM tv_channel WHERE country + 1 > 2"
	)
	cases := []struct {
		name  string
		cands []string
		want  string // the winner with fix=true
		run   [2]int // distinct candidates run with fix=true, fix=false
	}{
		{
			// 2 votes against 2 samples left: not decided, and count ties
			// countries with the smaller signature.
			name:  "leader votes equal samples left, later smaller signature ties",
			cands: []string{countries, countries, count, count},
			want:  count,
			run:   [2]int{2, 2},
		},
		{
			// 3 votes against count's 1 plus 2 left: not decided, and
			// countIDs brings count level with the smaller signature.
			name:  "trailing signature plus samples left reaches the leader",
			cands: []string{countries, countries, countries, count, countIDs, countIDs},
			want:  count,
			run:   [2]int{3, 3},
		},
		{
			name:  "strict majority before a repairable candidate",
			cands: []string{countries, repairable, countries, countries},
			want:  countries,
			run:   [2]int{1, 1},
		},
		{
			name:  "strict majority before an unrepairable candidate",
			cands: []string{countries, broken, countries, broken, countries},
			want:  countries,
			run:   [2]int{1, 1},
		},
		{
			// broken's sample is spent: 2 votes against 1 left.
			name:  "a failed candidate's samples are spent",
			cands: []string{broken, countries, countries, count},
			want:  countries,
			run:   [2]int{2, 2},
		},
		{
			name:  "no candidate executes",
			cands: []string{"garbage((", broken, "garbage(("},
			want:  "",
			run:   [2]int{2, 2},
		},
		{
			// Repaired, misspelled joins countries (3 votes against 2
			// left); unrepaired, it fails and count wins 2 to 1.
			name:  "repaired later candidate joins the leader",
			cands: []string{countries, misspelled, misspelled, count, count},
			want:  countries,
			run:   [2]int{2, 3},
		},
	}
	db := fixture()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			outs := checkVote(t, db, c.cands)
			if outs[0].SQL != c.want {
				t.Errorf("Vote(fix=true) = %q, want %q", outs[0].SQL, c.want)
			}
			if got := [2]int{outs[0].Run, outs[1].Run}; got != c.run {
				t.Errorf("ran %v distinct candidates (fix=true, fix=false), want %v", got, c.run)
			}
		})
	}
}

// TestVoteMatchesPerCandidateVoteOnSampledSQL repeats the comparison on
// simulated LLM samples for generated databases: each task's 30 zero-shot
// completions, then random multisets drawn from them.
func TestVoteMatchesPerCandidateVoteOnSampledSQL(t *testing.T) {
	c := spider.GenerateSmall(5, 0.05)
	sim := llm.NewSim(llm.ChatGPT)
	rng := rand.New(rand.NewSource(29))
	for _, e := range c.Dev.Examples[:min(60, len(c.Dev.Examples))] {
		zeroShot := prompt.NewBuilder("", e.DB, e.NL, 0)
		resp := sim.Complete(llm.Request{
			Prompt: zeroShot.Result().Text,
			N:      30,
			Task:   e,
			Seed:   int64(e.ID),
		})
		for _, sql := range resp.SQLs {
			checkAdaptResult(t, e.DB, sql)
		}
		checkVote(t, e.DB, resp.SQLs)
		for trial := 0; trial < 10; trial++ {
			checkVote(t, e.DB, drawMultiset(rng, resp.SQLs))
		}
	}
}
