package predictor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
)

// skelWire / modelWire are the exported mirrors of the trained state used
// for serialization: per-class word counts, from which UnmarshalBinary
// rebuilds the word→class index and its logarithms (Vocab is always the set
// of counted words, so the index's keys restore it). Skeleton order is
// preserved (it is the class order Predict scores and draws noise in), keys
// are re-derived from tokens, and the runtime noise knobs (Noise, Rng) are
// deliberately not persisted — a restored model is the clean trained
// artifact.
type skelWire struct {
	Tokens    []string
	Count     float64
	WordCount map[string]float64
	WordTotal float64
}

type modelWire struct {
	Skeletons []skelWire
	Vocab     map[string]bool
	TotalDocs float64
}

// MarshalBinary encodes the trained model for the tenant snapshot store.
func (m *Model) MarshalBinary() ([]byte, error) {
	w := modelWire{
		Skeletons: make([]skelWire, len(m.skeletons)),
		Vocab:     make(map[string]bool, len(m.index)),
		TotalDocs: m.totalDocs,
	}
	for i, sc := range m.skeletons {
		w.Skeletons[i] = skelWire{
			Tokens:    sc.tokens,
			Count:     sc.count,
			WordCount: map[string]float64{},
			WordTotal: sc.wordTotal,
		}
	}
	for word, ps := range m.index {
		w.Vocab[word] = true
		for _, p := range ps {
			w.Skeletons[p.class].WordCount[word] = p.count
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("predictor: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a model produced by MarshalBinary.
func (m *Model) UnmarshalBinary(data []byte) error {
	var w modelWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("predictor: decode: %w", err)
	}
	m.skeletons = make([]skelClass, len(w.Skeletons))
	m.index = make(map[string][]posting, len(w.Vocab))
	for i, sc := range w.Skeletons {
		m.skeletons[i] = skelClass{
			tokens:    sc.Tokens,
			key:       strings.Join(sc.Tokens, " "),
			count:     sc.Count,
			wordTotal: sc.WordTotal,
		}
		for word, n := range sc.WordCount {
			m.index[word] = append(m.index[word], posting{class: i, count: n})
		}
	}
	m.totalDocs = w.TotalDocs
	m.Noise, m.Rng = 0, nil
	m.precompute()
	return nil
}
