// Package automaton implements the paper's four-level abstraction hierarchy
// over SQL skeletons (Section IV-C). An automaton at each level maps a
// sequence of abstracted skeleton states to the set of demonstrations whose
// skeletons traverse exactly that state sequence; matching is stored-index
// lookup at the <END> state. Higher levels mask more detail, trading
// precision for generalization and fuzzification.
package automaton

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

// state abstracts one Detail-Level skeleton token (from sqlir.Skeleton) to
// its state at level; ok is false when the level drops the token.
func state(t string, level Level) (s string, ok bool) {
	if level == Detail {
		return t, true
	}
	if t == "_" || t == "(" || t == ")" {
		return "", false
	}
	if level == Keywords {
		return t, true
	}
	if c, isOp := structureClass[t]; isOp {
		t = c
	}
	if level == Clause && !clauseKeep[t] {
		return "", false
	}
	return t, true
}

// Abstract rewrites Detail-Level skeleton tokens (from sqlir.Skeleton) into
// the state sequence of the given level.
func Abstract(tokens []string, level Level) []string {
	var out []string
	for _, t := range tokens {
		if s, ok := state(t, level); ok {
			out = append(out, s)
		}
	}
	return out
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

// appendKey appends to dst the path key of tokens' states at a's level:
// <START>, each state in a's vocabulary, and <END>, separated by single
// spaces ("<START>  <END>" when no state is kept). Build and Match both
// write keys here, so the two cannot disagree.
func (a *Automaton) appendKey(dst []byte, tokens []string) []byte {
	dst = append(dst, "<START> "...)
	kept := 0
	for _, t := range tokens {
		s, ok := state(t, a.Level)
		if !ok || !a.vocab[s] {
			continue
		}
		if kept > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, s...)
		kept++
	}
	return append(dst, " <END>"...)
}

// Build constructs the automaton for one level from the Detail-Level
// skeleton token sequences of all demonstrations.
func Build(level Level, demoSkeletons [][]string) *Automaton {
	a := &Automaton{Level: level, ends: map[string][]int{}, vocab: map[string]bool{}}
	var key []byte
	for idx, toks := range demoSkeletons {
		for _, t := range toks {
			if s, ok := state(t, level); ok {
				a.vocab[s] = true
			}
		}
		key = a.appendKey(key[:0], toks)
		a.ends[string(key)] = append(a.ends[string(key)], idx)
	}
	return a
}

// matchKeySize is the size of Match's stack buffer for a path key. The
// longest Detail-Level key of the paper-scale corpus's training and dev
// skeletons is 111 bytes; a longer key costs Match one allocation.
const matchKeySize = 256

// Match returns the demonstration indexes whose state sequence at this level
// is identical to the predicted skeleton's. Out-of-vocabulary states are
// dropped from the prediction first. A nil slice means no match. Match
// allocates nothing for a key that fits matchKeySize bytes.
func (a *Automaton) Match(predTokens []string) []int {
	var buf [matchKeySize]byte
	return a.ends[string(a.appendKey(buf[:0], predTokens))]
}

// Hierarchy is the four-level automaton set used by demonstration selection.
type Hierarchy struct {
	Levels [NumLevels]*Automaton
	// Demos is the number of demonstrations indexed; every index a level
	// matches is below it.
	Demos int
}

// BuildHierarchy constructs all four automatons from demonstration skeletons.
func BuildHierarchy(demoSkeletons [][]string) *Hierarchy {
	h := &Hierarchy{Demos: len(demoSkeletons)}
	for l := Detail; l <= Clause; l++ {
		h.Levels[l-1] = Build(l, demoSkeletons)
	}
	return h
}
