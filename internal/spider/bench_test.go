package spider

import "testing"

// BenchmarkCorpusGenerate is the paper-scale corpus a shard generates at
// boot (Table 3's sizes: 8,659 training examples over 146 databases, and
// the dev, DK, Syn and Realistic splits), gated in BENCH_pipeline.txt.
func BenchmarkCorpusGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := GenerateSmall(1, 1.0); len(c.Train.Examples) != TrainQueries {
			b.Fatalf("%d training examples", len(c.Train.Examples))
		}
	}
}
