package sqlir

import "strings"

// refString, refJoinSQL and refSkeleton are String and Skeleton as they
// were before String wrote into one buffer: the printer collected every
// token into a []string and joined them, a function application was the
// one keyword token "FN(" and a string literal the value token of its
// quoted text. refToken turns the walk's tokens back into those.

// ReferenceString and ReferenceSkeleton let the external tests compare
// with the references.
var (
	ReferenceString   = refString
	ReferenceSkeleton = refSkeleton
)

func refToken(kind emitKind, text string) (emitKind, string) {
	switch kind {
	case emitFunc:
		return emitKeyword, text + "("
	case emitString:
		return emitValue, "'" + strings.ReplaceAll(text, "'", "''") + "'"
	}
	return kind, text
}

func refString(sel *Select) string {
	var parts []string
	emitSelect(sel, func(kind emitKind, text string) {
		_, text = refToken(kind, text)
		parts = append(parts, text)
	})
	return refJoinSQL(parts)
}

func refJoinSQL(parts []string) string {
	var sb strings.Builder
	for i, p := range parts {
		if i > 0 {
			prev := parts[i-1]
			if p == "," || p == ")" || strings.HasSuffix(prev, "(") || p == "." || prev == "." {
				// no space
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteString(p)
	}
	return sb.String()
}

func refSkeleton(sel *Select) []string {
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
		kind, text = refToken(kind, text)
		switch kind {
		case emitKeyword:
			if text == "AS" {
				return
			}
			if strings.HasSuffix(text, "(") && len(text) > 1 {
				push(strings.TrimSuffix(text, "("))
				push("(")
				return
			}
			if text == "*" {
				push("_")
				return
			}
			push(text)
		case emitName, emitValue:
			push("_")
		case emitPunct:
			if text == "(" || text == ")" {
				push(text)
			}
		}
	})
	return out
}
