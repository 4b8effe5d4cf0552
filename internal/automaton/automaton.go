// Package automaton implements the paper's four-level abstraction hierarchy
// over SQL skeletons (Section IV-C). An automaton at each level maps a
// sequence of abstracted skeleton states to the set of demonstrations whose
// skeletons traverse exactly that state sequence; matching is stored-index
// lookup at the <END> state. Higher levels mask more detail, trading
// precision for generalization and fuzzification.
package automaton

import (
	"strings"
)

// Level identifies an abstraction level, 1 (finest) through 4 (coarsest).
type Level int

// The four abstraction levels of Figure 6.
const (
	Detail    Level = 1 // placeholders kept: SELECT _ FROM _ ...
	Keywords  Level = 2 // placeholders dropped, all keywords kept
	Structure Level = 3 // operators mapped to classes: <CMP>, <IUE>, <AGG>, <OP>
	Clause    Level = 4 // only principal clauses kept
)

// NumLevels is the number of abstraction levels.
const NumLevels = 4

// structureClass maps specific operator tokens to their Structure-Level
// class per Figure 7.
var structureClass = map[string]string{
	"COUNT": "<AGG>", "MAX": "<AGG>", "MIN": "<AGG>", "SUM": "<AGG>", "AVG": "<AGG>",
	"<": "<CMP>", "<=": "<CMP>", ">": "<CMP>", ">=": "<CMP>", "=": "<CMP>", "!=": "<CMP>",
	"BETWEEN": "<CMP>", "NOT LIKE": "<CMP>", "LIKE": "<CMP>", "NOT IN": "<CMP>", "IN": "<CMP>",
	"INTERSECT": "<IUE>", "UNION": "<IUE>", "UNION ALL": "<IUE>", "EXCEPT": "<IUE>",
	"+": "<OP>", "-": "<OP>", "*": "<OP>", "/": "<OP>",
}

// clauseKeep is the set of states retained at Clause level. <IUE> is kept for
// set-operation semantics, WHERE for filtering semantics (Figure 6, level 4).
var clauseKeep = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP BY": true,
	"HAVING": true, "ORDER BY": true, "LIMIT": true, "<IUE>": true,
}

// Abstract rewrites Detail-Level skeleton tokens (from sqlir.Skeleton) into
// the state sequence of the given level.
func Abstract(tokens []string, level Level) []string {
	switch level {
	case Detail:
		return append([]string(nil), tokens...)
	case Keywords:
		var out []string
		for _, t := range tokens {
			if t == "_" || t == "(" || t == ")" {
				continue
			}
			out = append(out, t)
		}
		return out
	case Structure:
		var out []string
		for _, t := range Abstract(tokens, Keywords) {
			if c, ok := structureClass[t]; ok {
				out = append(out, c)
			} else {
				out = append(out, t)
			}
		}
		return out
	case Clause:
		var out []string
		for _, t := range Abstract(tokens, Structure) {
			if clauseKeep[t] {
				out = append(out, t)
			}
		}
		return out
	}
	return nil
}

// Key renders a state sequence as the automaton path key, bracketed by the
// <START> and <END> states.
func Key(states []string) string {
	return "<START> " + strings.Join(states, " ") + " <END>"
}

// Automaton indexes demonstrations by their abstracted state sequence at one
// level. The demonstration indexes are stored at the <END> state of each
// path, so matching is a single lookup.
type Automaton struct {
	Level Level
	// ends maps a path key to the demonstration indexes sharing that exact
	// state sequence, in insertion order.
	ends map[string][]int
	// vocab is the set of states observed during construction; unknown
	// tokens in predicted skeletons are removed before matching (the paper
	// strips out-of-vocabulary tokens introduced by the skeleton model).
	vocab map[string]bool
}

// Build constructs the automaton for one level from the Detail-Level
// skeleton token sequences of all demonstrations.
func Build(level Level, demoSkeletons [][]string) *Automaton {
	a := &Automaton{Level: level, ends: map[string][]int{}, vocab: map[string]bool{}}
	for idx, toks := range demoSkeletons {
		states := Abstract(toks, level)
		for _, s := range states {
			a.vocab[s] = true
		}
		k := Key(states)
		a.ends[k] = append(a.ends[k], idx)
	}
	return a
}

// Match returns the demonstration indexes whose state sequence at this level
// is identical to the predicted skeleton's. Out-of-vocabulary states are
// dropped from the prediction first. A nil slice means no match.
func (a *Automaton) Match(predTokens []string) []int {
	states := Abstract(predTokens, a.Level)
	kept := states[:0:0]
	for _, s := range states {
		if a.vocab[s] {
			kept = append(kept, s)
		}
	}
	return a.ends[Key(kept)]
}

// Hierarchy is the four-level automaton set used by demonstration selection.
type Hierarchy struct {
	Levels [NumLevels]*Automaton
}

// BuildHierarchy constructs all four automatons from demonstration skeletons.
func BuildHierarchy(demoSkeletons [][]string) *Hierarchy {
	h := &Hierarchy{}
	for l := Detail; l <= Clause; l++ {
		h.Levels[l-1] = Build(l, demoSkeletons)
	}
	return h
}
