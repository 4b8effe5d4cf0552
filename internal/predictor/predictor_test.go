package predictor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/spider"
	"repro/internal/sqlir"
)

func trained(t *testing.T) (*Model, *spider.Corpus) {
	t.Helper()
	c := spider.GenerateSmall(9, 0.08)
	return Train(c.Train.Examples), c
}

func TestPredictReturnsRankedBeam(t *testing.T) {
	m, c := trained(t)
	e := c.Dev.Examples[0]
	preds := m.Predict(e.NL, 3)
	if len(preds) != 3 {
		t.Fatalf("got %d predictions", len(preds))
	}
	var sum float64
	for i, p := range preds {
		if len(p.Tokens) == 0 {
			t.Errorf("prediction %d empty", i)
		}
		if i > 0 && p.Prob > preds[i-1].Prob {
			t.Errorf("beam not sorted: %v", preds)
		}
		sum += p.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities not normalized: %f", sum)
	}
}

// topKRecall measures how often the gold skeleton appears in the top-k
// predictions over a benchmark — the recall property Section IV-B targets.
func topKRecall(m *Model, examples []*spider.Example, k int) float64 {
	hit := 0
	for _, e := range examples {
		gold := sqlir.SkeletonString(e.Gold)
		for _, p := range m.Predict(e.NL, k) {
			if p.Skeleton() == gold {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(examples))
}

func TestTopKRecallImprovesWithK(t *testing.T) {
	m, c := trained(t)
	dev := c.Dev.Examples
	r1 := topKRecall(m, dev, 1)
	r3 := topKRecall(m, dev, 3)
	r10 := topKRecall(m, dev, 10)
	if r3 < r1 || r10 < r3 {
		t.Errorf("recall not monotone in k: r1=%.3f r3=%.3f r10=%.3f", r1, r3, r10)
	}
	if r3 < 0.5 {
		t.Errorf("top-3 recall %.3f too low to drive demonstration selection", r3)
	}
	if r1 > 0.995 {
		t.Errorf("top-1 recall %.3f suspiciously perfect; the PLM substitute must make mistakes", r1)
	}
}

func TestVariantDegradation(t *testing.T) {
	m, c := trained(t)
	std := topKRecall(m, c.Dev.Examples, 3)
	syn := topKRecall(m, c.Syn.Examples, 3)
	// The SYN split shifts the lexical distribution, so the trained predictor
	// should not do better there.
	if syn > std+0.05 {
		t.Errorf("SYN recall %.3f exceeds standard %.3f; lexical degradation missing", syn, std)
	}
}

func TestDeterministicWithoutNoise(t *testing.T) {
	m, c := trained(t)
	e := c.Dev.Examples[1]
	a := m.Predict(e.NL, 3)
	b := m.Predict(e.NL, 3)
	for i := range a {
		if a[i].Skeleton() != b[i].Skeleton() {
			t.Fatalf("prediction %d differs: %q vs %q", i, a[i].Skeleton(), b[i].Skeleton())
		}
	}
}

func TestNoiseChangesRanking(t *testing.T) {
	m, c := trained(t)
	m.Noise = 0.5
	m.Rng = rand.New(rand.NewSource(1))
	diff := false
	for _, e := range c.Dev.Examples[:20] {
		clean := Train(c.Train.Examples).Predict(e.NL, 1)[0].Skeleton()
		noisy := m.Predict(e.NL, 1)[0].Skeleton()
		if clean != noisy {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("noise knob has no effect on predictions")
	}
}

func TestInventoryCoversGoldSkeletons(t *testing.T) {
	m, c := trained(t)
	if len(m.skeletons) < 10 {
		t.Errorf("inventory too small: %d", len(m.skeletons))
	}
	// Most dev gold skeletons should exist in the training inventory (the
	// generalization gap is what the automaton's coarse levels cover).
	inv := map[string]bool{}
	for _, sc := range m.skeletons {
		inv[sc.key] = true
	}
	miss := 0
	for _, e := range c.Dev.Examples {
		if !inv[sqlir.SkeletonString(e.Gold)] {
			miss++
		}
	}
	if frac := float64(miss) / float64(len(c.Dev.Examples)); frac > 0.3 {
		t.Errorf("%.1f%% of dev skeletons unseen in training inventory", frac*100)
	}
}
