package sqlir

import "strings"

// Skeleton extracts the Detail-Level SQL skeleton of a Select: every
// database-specific token (table, column, alias, constant value) is replaced
// by an underscore placeholder while all operational keywords are preserved
// (Section II-C of the paper). Consecutive placeholders arising from
// qualified names (`T1.Country`) collapse into a single `_`, and the alias
// keyword AS is dropped, matching the paper's examples:
//
//	SELECT _ FROM _ EXCEPT SELECT _ FROM _ JOIN _ ON _ = _ WHERE _ = _
func Skeleton(sel *Select) []string {
	var out []string
	lastUnderscore := false
	push := func(tok string) {
		if tok == "_" {
			if lastUnderscore {
				return
			}
			lastUnderscore = true
		} else {
			lastUnderscore = false
		}
		out = append(out, tok)
	}
	emitSelect(sel, func(kind emitKind, text string) {
		switch kind {
		case emitKeyword:
			if text == "AS" {
				// Aliases are database-specific; the preceding name already
				// produced the placeholder.
				return
			}
			// `*` in projections and COUNT(*) is a database-detail token
			// (which columns), not an operator: mask it like a name so
			// COUNT(*) and COUNT(col) share operator composition.
			if text == "*" {
				push("_")
				return
			}
			push(text)
		case emitFunc:
			// A function application: the automaton sees the function
			// keyword and the paren separately.
			push(text)
			push("(")
		case emitName, emitValue, emitString:
			push("_")
		case emitPunct:
			if text == "(" || text == ")" {
				push(text)
			}
			// commas and dots are dropped: `a, b` and `T1.a` both reduce to `_`
		}
	})
	return out
}

// SkeletonString renders the Detail-Level skeleton as a single string.
func SkeletonString(sel *Select) string {
	return strings.Join(Skeleton(sel), " ")
}
