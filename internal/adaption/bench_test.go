package adaption

import (
	"testing"

	"repro/internal/spider"
)

// BenchmarkConsistencyVote measures the Section IV-D2 execution-consistency
// vote on a small candidate set shaped like self-consistency sampling:
// duplicates dominate, so the first distinct candidate holds four of the
// five samples and decides the vote alone; its repairable candidate never
// runs. The paper-scale vote over recorded samples is internal/core's
// gated BenchmarkPipelineAdapt.

func voteFixture(b *testing.B) (*spider.Corpus, []string) {
	b.Helper()
	c := spider.GenerateSmall(123, 0.05)
	e := c.Dev.Examples[0]
	base := e.GoldSQL
	candidates := []string{
		base, base, base, // self-consistency duplicates
		"SELECT nonexistent FROM " + e.Gold.From.Base.Table, // repairable/failing
		base,
	}
	return c, candidates
}

func BenchmarkConsistencyVote(b *testing.B) {
	c, candidates := voteFixture(b)
	db := c.Dev.Examples[0].DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Vote(db, candidates, true); !ok {
			b.Fatal("vote found no executable candidate")
		}
	}
}
