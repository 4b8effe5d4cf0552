// Package selection implements PURPLE's demonstration selection
// (Algorithm 1 and Figure 8 of the paper). Given the top-k predicted
// skeletons and the four-level automaton hierarchy, it walks a 4×k
// preference matrix — levels × predictions, finest level and highest-
// probability prediction first — popping demonstrations from the top-p
// non-empty cells and growing p by the INCREASE-Generalization schedule
// until every matched demonstration is queued. The order is produced
// lazily: a prompt keeps only the demonstrations its token budget admits,
// so the walk stops as soon as the prompt stops pulling.
package selection

import (
	"iter"
	"math/rand"
	"strconv"

	"repro/internal/automaton"
)

// Policy controls the generalization schedule of Algorithm 1.
type Policy struct {
	// P0 is the initial number of preference cells consulted per round.
	P0 int
	// Increase advances p each round (IN C R E A S E-Generalization). The
	// paper evaluates Linear-1, Linear-3 and Exp-2 (Figure 12).
	Increase func(p int) int
	// Name labels the policy in experiment output.
	Name string
}

// Linear returns a policy adding step to p each round, named "Linear-<step>".
func Linear(p0, step int) Policy {
	return Policy{P0: p0, Increase: func(p int) int { return p + step }, Name: "Linear-" + strconv.Itoa(step)}
}

// Exp returns a policy multiplying p by factor each round, named
// "Exp-<factor>".
func Exp(p0, factor int) Policy {
	return Policy{P0: p0, Increase: func(p int) int { return p * factor }, Name: "Exp-" + strconv.Itoa(factor)}
}

// DefaultPolicy is the paper's default: p0 = 1, increase by 1 per round,
// targeting the 4:3:2:1 expected matching ratio across abstraction levels.
func DefaultPolicy() Policy { return Linear(1, 1) }

// Options tunes selection behaviour; the zero value is the paper default.
type Options struct {
	Policy Policy
	// MaskLevels ignores the first n abstraction levels (the Figure 12
	// "masking number" noise knob); 0 uses all four levels.
	MaskLevels int
	// DropProb randomly drops one predicted skeleton with this probability
	// (the Figure 12 "Drop-y" noise knob).
	DropProb float64
	// Rng drives the noise knobs and the random fill; nil means no
	// randomness (deterministic selection, no random fill).
	Rng *rand.Rand
	// FillPool, when non-nil, supplies demonstration indexes appended in
	// random order after all matched demonstrations, so the prompt budget
	// is fully used (Section IV-C3). Each index is below the hierarchy's
	// Demos.
	FillPool []int
}

// Select runs Algorithm 1. predSkeletons are the top-k Detail-Level token
// sequences ordered by model probability (highest first). The result is
// the demonstration indexes in preference order, deduplicated.
//
// Select draws the Drop-y noise and builds the preference matrix (one
// automaton lookup per level and prediction) before it returns. Popping
// cells, deduplicating and drawing the FillPool permutation from Rng
// happen only as the consumer pulls: a consumer that stops after n
// demonstrations pays for n, and Rng is drawn from only once the matches
// run out. Every walk draws a fresh permutation, so with a FillPool the
// result is a single-use iterator: range over it once.
func Select(h *automaton.Hierarchy, predSkeletons [][]string, opts Options) iter.Seq[int] {
	policy := opts.Policy
	if policy.Increase == nil {
		policy = DefaultPolicy()
	}
	preds := predSkeletons
	if opts.DropProb > 0 && opts.Rng != nil && len(preds) > 1 && opts.Rng.Float64() < opts.DropProb {
		drop := opts.Rng.Intn(len(preds))
		preds = append(append([][]string{}, preds[:drop]...), preds[drop+1:]...)
	}

	// Build the preference matrix I: cell order is level-major, prediction
	// rank minor (cells 1..k are Detail over top-1..top-k, then Keywords...),
	// exactly Figure 8's numbering. Masked levels contribute empty cells.
	cells := make([][]int, 0, automaton.NumLevels*len(preds))
	for l := automaton.Detail; l <= automaton.Clause; l++ {
		for _, p := range preds {
			var matches []int
			if int(l) > opts.MaskLevels {
				matches = h.Levels[l-1].Match(p)
			}
			cells = append(cells, matches)
		}
	}

	return func(yield func(int) bool) {
		next := make([]int, len(cells)) // per cell, the next match to pop
		seen := newBitset(h.Demos)
		p := policy.P0
		for {
			remaining := false
			for i, c := range cells {
				if next[i] < len(c) {
					remaining = true
					break
				}
			}
			if !remaining {
				break
			}
			// GET-TOP(I, p): the first p cells that still hold matches.
			taken := 0
			for i, c := range cells {
				if taken >= p {
					break
				}
				if next[i] >= len(c) {
					continue
				}
				taken++
				// POP-DEMO: next unseen demonstration from this cell.
				for next[i] < len(c) {
					d := c[next[i]]
					next[i]++
					if seen.add(d) {
						if !yield(d) {
							return
						}
						break
					}
				}
			}
			p = policy.Increase(p)
			if p <= 0 {
				break
			}
		}

		if opts.FillPool != nil && opts.Rng != nil {
			for _, i := range opts.Rng.Perm(len(opts.FillPool)) {
				if d := opts.FillPool[i]; seen.add(d) {
					if !yield(d) {
						return
					}
				}
			}
		}
	}
}

// bitset is the set of demonstrations a walk has yielded, one bit per
// demonstration the hierarchy indexes.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// add inserts i and reports whether it was absent.
func (b bitset) add(i int) bool {
	w, bit := i/64, uint64(1)<<(i%64)
	if b[w]&bit != 0 {
		return false
	}
	b[w] |= bit
	return true
}
