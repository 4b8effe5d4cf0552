package predictor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/spider"
	"repro/internal/sqlir"
)

// refModel is the scorer the word→class index replaced: per-class word
// count maps and a vocabulary set, a math.Log per (class, word) pair at
// prediction time, then a full sort of every class.
type refModel struct {
	skeletons []refClass
	vocab     map[string]bool
	totalDocs float64
	Noise     float64
	Rng       *rand.Rand
}

type refClass struct {
	tokens    []string
	key       string
	count     float64
	wordCount map[string]float64
	wordTotal float64
}

func refTrain(examples []*spider.Example) *refModel {
	m := &refModel{vocab: map[string]bool{}}
	index := map[string]int{}
	for _, e := range examples {
		toks := sqlir.Skeleton(e.Gold)
		key := strings.Join(toks, " ")
		i, ok := index[key]
		if !ok {
			i = len(m.skeletons)
			index[key] = i
			m.skeletons = append(m.skeletons, refClass{tokens: toks, key: key, wordCount: map[string]float64{}})
		}
		sc := &m.skeletons[i]
		sc.count++
		m.totalDocs++
		for _, w := range queryWords(e.NL) {
			sc.wordCount[w]++
			sc.wordTotal++
			m.vocab[w] = true
		}
	}
	return m
}

// refFromWire decodes the gob format the way the replaced model did.
func refFromWire(w modelWire) *refModel {
	m := &refModel{vocab: w.Vocab, totalDocs: w.TotalDocs}
	if m.vocab == nil {
		m.vocab = map[string]bool{}
	}
	for _, sc := range w.Skeletons {
		wc := sc.WordCount
		if wc == nil {
			wc = map[string]float64{}
		}
		m.skeletons = append(m.skeletons, refClass{
			tokens: sc.Tokens, key: strings.Join(sc.Tokens, " "),
			count: sc.Count, wordCount: wc, wordTotal: sc.WordTotal,
		})
	}
	return m
}

// wire is the replaced model's MarshalBinary input: the gob format a
// snapshot written before the index existed holds.
func (m *refModel) wire() modelWire {
	w := modelWire{Vocab: m.vocab, TotalDocs: m.totalDocs}
	for _, sc := range m.skeletons {
		w.Skeletons = append(w.Skeletons, skelWire{Tokens: sc.tokens, Count: sc.count, WordCount: sc.wordCount, WordTotal: sc.wordTotal})
	}
	return w
}

func (m *refModel) predict(nl string, k int) []Prediction {
	words := queryWords(nl)
	v := float64(len(m.vocab)) + 1
	type scored struct {
		idx  int
		logp float64
	}
	all := make([]scored, len(m.skeletons))
	for i := range m.skeletons {
		sc := &m.skeletons[i]
		lp := math.Log(sc.count / m.totalDocs)
		for _, w := range words {
			lp += math.Log((sc.wordCount[w] + 1) / (sc.wordTotal + v))
		}
		if m.Noise > 0 && m.Rng != nil {
			lp += m.Rng.NormFloat64() * m.Noise * 10
		}
		all[i] = scored{i, lp}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].logp != all[j].logp {
			return all[i].logp > all[j].logp
		}
		return m.skeletons[all[i].idx].key < m.skeletons[all[j].idx].key
	})
	if k > len(all) {
		k = len(all)
	}
	top := all[:k]
	maxlp := math.Inf(-1)
	for _, s := range top {
		if s.logp > maxlp {
			maxlp = s.logp
		}
	}
	var z float64
	for _, s := range top {
		z += math.Exp(s.logp - maxlp)
	}
	out := make([]Prediction, k)
	for i, s := range top {
		out[i] = Prediction{Tokens: m.skeletons[s.idx].tokens, Prob: math.Exp(s.logp-maxlp) / z}
	}
	return out
}

func encodeWire(t *testing.T, w modelWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeModel(t *testing.T, data []byte) *Model {
	t.Helper()
	var m Model
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return &m
}

func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return decodeModel(t, data)
}

// samePredictions fails unless m and ref return the same tokens with
// bit-identical probabilities for every query and every k.
func samePredictions(t *testing.T, what string, m *Model, ref *refModel, queries []string) {
	t.Helper()
	if len(m.skeletons) != len(ref.skeletons) {
		t.Fatalf("%s: inventory %d, reference %d", what, len(m.skeletons), len(ref.skeletons))
	}
	ks := []int{0, 1, 2, 3, len(ref.skeletons), len(ref.skeletons) + 4}
	for _, q := range queries {
		for _, k := range ks {
			got, want := m.Predict(q, k), ref.predict(q, k)
			if len(got) != len(want) {
				t.Fatalf("%s: Predict(%q, %d) returned %d hypotheses, reference %d", what, q, k, len(got), len(want))
			}
			for i := range got {
				if !slices.Equal(got[i].Tokens, want[i].Tokens) || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
					t.Fatalf("%s: Predict(%q, %d)[%d] = %q %v, reference %q %v",
						what, q, k, i, got[i].Skeleton(), got[i].Prob, want[i].Skeleton(), want[i].Prob)
				}
			}
		}
	}
}

func TestPredictMatchesReferenceOnCorpus(t *testing.T) {
	c := spider.GenerateSmall(9, 0.08)
	m, ref := Train(c.Train.Examples), refTrain(c.Train.Examples)
	var queries []string
	for _, e := range append(append([]*spider.Example{}, c.Dev.Examples...), c.Syn.Examples...) {
		queries = append(queries, e.NL)
	}
	queries = append(queries, "", "zzz unseen words only")
	samePredictions(t, "trained", m, ref, queries)
	samePredictions(t, "snapshot in the replaced format", decodeModel(t, encodeWire(t, ref.wire())), ref, queries)
	samePredictions(t, "marshal round trip", roundTrip(t, m), ref, queries)

	// Small models trained on random subsets.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		var sub []*spider.Example
		for _, i := range rng.Perm(len(c.Train.Examples))[:1+rng.Intn(40)] {
			sub = append(sub, c.Train.Examples[i])
		}
		samePredictions(t, fmt.Sprintf("subset %d", trial), Train(sub), refTrain(sub), queries[:50])
	}
}

// randomWire builds a small model in the gob format: random word counts,
// and some classes that copy another's counts under a different key, so
// their scores tie exactly and the key decides.
func randomWire(rng *rand.Rand) (modelWire, []string) {
	words := make([]string, 3+rng.Intn(12))
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	w := modelWire{Vocab: map[string]bool{}}
	n := 1 + rng.Intn(10)
	for i := 0; i < n; i++ {
		sw := skelWire{Tokens: []string{"select", fmt.Sprintf("k%02d", rng.Intn(100)), fmt.Sprint(i)}, WordCount: map[string]float64{}}
		if i > 0 && rng.Intn(3) == 0 {
			src := w.Skeletons[rng.Intn(i)]
			sw.Count, sw.WordTotal = src.Count, src.WordTotal
			for word, c := range src.WordCount {
				sw.WordCount[word] = c
			}
		} else {
			sw.Count = float64(1 + rng.Intn(5))
			for _, word := range words {
				if rng.Intn(2) == 0 {
					c := float64(1 + rng.Intn(4))
					sw.WordCount[word] = c
					sw.WordTotal += c
					w.Vocab[word] = true
				}
			}
		}
		w.TotalDocs += sw.Count
		w.Skeletons = append(w.Skeletons, sw)
	}
	var queries []string
	for q := 0; q < 8; q++ {
		var qw []string
		for j := rng.Intn(6); j >= 0; j-- {
			qw = append(qw, words[rng.Intn(len(words))])
		}
		if rng.Intn(4) == 0 {
			qw = append(qw, "unseen")
		}
		queries = append(queries, strings.Join(qw, " "))
	}
	return w, queries
}

func TestPredictMatchesReferenceOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		w, queries := randomWire(rng)
		m, ref := decodeModel(t, encodeWire(t, w)), refFromWire(w)
		what := fmt.Sprintf("random model %d", trial)
		samePredictions(t, what, m, ref, queries)
		samePredictions(t, what+" after a round trip", roundTrip(t, m), ref, queries)
	}
}

func TestPredictMatchesReferenceWithNoise(t *testing.T) {
	c := spider.GenerateSmall(9, 0.08)
	m, ref := Train(c.Train.Examples), refTrain(c.Train.Examples)
	m.Noise, ref.Noise = 0.5, 0.5
	m.Rng, ref.Rng = rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	var queries []string
	for _, e := range c.Dev.Examples[:40] {
		queries = append(queries, e.NL)
	}
	samePredictions(t, "noisy", m, ref, queries)
}
