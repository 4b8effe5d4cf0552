// Package predictor implements PURPLE's skeleton-prediction module
// (Section IV-B), the stand-in for the fine-tuned T5-3B generator. The
// substitute is a multinomial naive-Bayes sequence scorer over the training
// split's skeleton inventory: the NL query's content words select skeletons,
// and a beam-search-style ranked top-k with sequence probabilities is
// returned. Like the paper's PLM it is trained on gold (NL, skeleton) pairs,
// errs on rare compositions, and degrades on the SYN/DK/Realistic variants
// whose lexical distribution shifts away from the training NL.
package predictor

import (
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/spider"
	"repro/internal/sqlir"
)

// Prediction is one ranked skeleton hypothesis.
type Prediction struct {
	Tokens []string // Detail-Level skeleton tokens
	Prob   float64  // normalized sequence probability
}

// Skeleton renders the hypothesis as a string.
func (p Prediction) Skeleton() string { return strings.Join(p.Tokens, " ") }

// Model is the trained skeleton generator.
type Model struct {
	skeletons []skelClass
	// index maps every word of the training NL to its postings, one per
	// class that saw the word, in class order; its keys are the vocabulary.
	index     map[string][]posting
	totalDocs float64
	// Noise, when positive, adds Gaussian noise to every class's ranking
	// score to emulate a weaker PLM; requires Rng. Only a test sets it.
	Noise float64
	Rng   *rand.Rand
}

type skelClass struct {
	tokens    []string
	key       string
	count     float64
	wordTotal float64
	prior     float64 // log P(class)
	unseen    float64 // log P(w | class) of a word the class never saw
}

// posting is one class's count of one word and the word's smoothed log
// likelihood under that class.
type posting struct {
	class int
	count float64
	logp  float64
}

// Train fits the model on the training split.
func Train(examples []*spider.Example) *Model {
	m := &Model{index: map[string][]posting{}}
	classOf := map[string]int{}
	for _, e := range examples {
		toks := sqlir.Skeleton(e.Gold)
		key := strings.Join(toks, " ")
		i, ok := classOf[key]
		if !ok {
			i = len(m.skeletons)
			classOf[key] = i
			m.skeletons = append(m.skeletons, skelClass{tokens: toks, key: key})
		}
		sc := &m.skeletons[i]
		sc.count++
		m.totalDocs++
		for _, w := range queryWords(e.NL) {
			// The class's posting, by binary search in class order (written
			// out: slices.BinarySearchFunc's indirect compare costs Train
			// about 15%), inserted on the class's first use of the word.
			ps := m.index[w]
			j, n := 0, len(ps)
			for j < n {
				if h := (j + n) / 2; ps[h].class < i {
					j = h + 1
				} else {
					n = h
				}
			}
			if j == len(ps) || ps[j].class != i {
				ps = slices.Insert(ps, j, posting{class: i})
				m.index[w] = ps
			}
			ps[j].count++
			sc.wordTotal++
		}
	}
	m.precompute()
	return m
}

// precompute fills in the scorer's logarithms once the counts are final.
func (m *Model) precompute() {
	v := float64(len(m.index)) + 1
	for i := range m.skeletons {
		sc := &m.skeletons[i]
		sc.prior = math.Log(sc.count / m.totalDocs)
		sc.unseen = math.Log(1 / (sc.wordTotal + v))
	}
	for _, ps := range m.index {
		for j := range ps {
			ps[j].logp = math.Log((ps[j].count + 1) / (m.skeletons[ps[j].class].wordTotal + v))
		}
	}
}

// Predict returns the top-k skeleton hypotheses for an NL query, highest
// probability first. Probabilities are normalized over the returned beam.
func (m *Model) Predict(nl string, k int) []Prediction {
	// Each class scores log P(class) + Σ_w log P(w | class), summed word
	// by word in query order.
	logp := make([]float64, len(m.skeletons))
	for i := range m.skeletons {
		logp[i] = m.skeletons[i].prior
	}
	for _, w := range queryWords(nl) {
		ps := m.index[w]
		for i := range logp {
			if len(ps) > 0 && ps[0].class == i {
				logp[i] += ps[0].logp
				ps = ps[1:]
			} else {
				logp[i] += m.skeletons[i].unseen
			}
		}
	}
	if m.Noise > 0 && m.Rng != nil {
		for i := range logp {
			logp[i] += m.Rng.NormFloat64() * m.Noise * 10
		}
	}
	// The k best, kept sorted by insertion in the order a full sort would
	// give: higher score first, ties to the smaller key.
	before := func(i, j int) bool {
		if logp[i] != logp[j] {
			return logp[i] > logp[j]
		}
		return m.skeletons[i].key < m.skeletons[j].key
	}
	k = min(k, len(logp))
	top := make([]int, 0, k+1)
	for i := range logp {
		j := len(top)
		for j > 0 && before(i, top[j-1]) {
			j--
		}
		if j < k {
			top = slices.Insert(top, j, i)
			if len(top) > k {
				top = top[:k]
			}
		}
	}
	// Normalize within the beam with the log-sum-exp trick.
	maxlp := math.Inf(-1)
	for _, i := range top {
		if logp[i] > maxlp {
			maxlp = logp[i]
		}
	}
	var z float64
	for _, i := range top {
		z += math.Exp(logp[i] - maxlp)
	}
	out := make([]Prediction, k)
	for n, i := range top {
		out[n] = Prediction{
			Tokens: m.skeletons[i].tokens,
			Prob:   math.Exp(logp[i]-maxlp) / z,
		}
	}
	return out
}

// queryWords tokenizes NL for the scorer: lower-cased words plus adjacent
// bigrams (bigrams capture cues like "not have" and "most common" that
// discriminate operator compositions).
func queryWords(nl string) []string {
	fields := strings.FieldsFunc(strings.ToLower(nl), func(r rune) bool {
		return r == ' ' || r == ',' || r == '?' || r == '.' || r == '\'' || r == '"'
	})
	out := make([]string, 0, len(fields)*2)
	out = append(out, fields...)
	for i := 0; i+1 < len(fields); i++ {
		out = append(out, fields[i]+"_"+fields[i+1])
	}
	return out
}
