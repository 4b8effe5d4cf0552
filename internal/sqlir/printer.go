package sqlir

import (
	"strconv"
	"strings"
)

// emitKind classifies emitted tokens so both the printer and the
// skeletonizer can share one AST walk.
type emitKind int

const (
	emitKeyword emitKind = iota // SQL keywords and operators
	emitName                    // table/column/alias identifiers
	emitValue                   // numeric literals
	emitString                  // a string literal's value, printed quoted
	emitFunc                    // a function name, printed with its "("
	emitPunct                   // parens and commas
)

type emitter func(kind emitKind, text string)

// String renders the Select as canonical SQL text. The rendering is
// re-parseable: Parse(String(sel)) yields an AST identical to sel for any
// sel produced by Parse (FuzzRoundTrip enforces this).
//
// Tokens are separated by single spaces, tightened around punctuation the
// way the paper's examples render SQL: no space before ",", ")" or ".",
// and none after a token ending in "(" or after ".". They are written
// straight into one buffer, on the stack for a query of up to printBuf
// bytes, so printing allocates the result and little else.
func String(sel *Select) string {
	var buf [printBuf]byte
	b := buf[:0]
	tight := false // the last token ended in "(" or was "."
	emitSelect(sel, func(kind emitKind, text string) {
		if len(b) > 0 && !tight && text != "," && text != ")" && text != "." {
			b = append(b, ' ')
		}
		switch kind {
		case emitString:
			b = appendQuoted(b, text)
			tight = false
		case emitFunc:
			b = append(append(b, text...), '(')
			tight = true
		default:
			b = append(b, text...)
			tight = strings.HasSuffix(text, "(") || text == "."
		}
	})
	return string(b)
}

// printBuf is the stack buffer String prints into; a longer query grows it
// onto the heap.
const printBuf = 256

// appendQuoted appends s as a SQL string literal: single-quoted, each
// quote inside doubled.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '\'')
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			break
		}
		b = append(append(b, s[:i+1]...), '\'')
		s = s[i+1:]
	}
	return append(append(b, s...), '\'')
}

func emitSelect(sel *Select, emit emitter) {
	emit(emitKeyword, "SELECT")
	if sel.Distinct {
		emit(emitKeyword, "DISTINCT")
	}
	for i, it := range sel.Items {
		if i > 0 {
			emit(emitPunct, ",")
		}
		emitExprPrec(it.Expr, emit, precOperand)
		if it.Alias != "" {
			emit(emitKeyword, "AS")
			emit(emitName, it.Alias)
		}
	}
	emit(emitKeyword, "FROM")
	emitTableRef(sel.From.Base, emit)
	for _, j := range sel.From.Joins {
		emit(emitKeyword, "JOIN")
		emitTableRef(j.Table, emit)
		emit(emitKeyword, "ON")
		emitExpr(j.Left, emit)
		emit(emitKeyword, "=")
		emitExpr(j.Right, emit)
	}
	if sel.Where != nil {
		emit(emitKeyword, "WHERE")
		emitExpr(sel.Where, emit)
	}
	if len(sel.GroupBy) > 0 {
		emit(emitKeyword, "GROUP BY")
		for i, g := range sel.GroupBy {
			if i > 0 {
				emit(emitPunct, ",")
			}
			emitExpr(g, emit)
		}
		if sel.Having != nil {
			emit(emitKeyword, "HAVING")
			emitExpr(sel.Having, emit)
		}
	}
	if len(sel.OrderBy) > 0 {
		emit(emitKeyword, "ORDER BY")
		for i, o := range sel.OrderBy {
			if i > 0 {
				emit(emitPunct, ",")
			}
			emitExprPrec(o.Expr, emit, precOperand)
			if o.Desc {
				emit(emitKeyword, "DESC")
			} else {
				emit(emitKeyword, "ASC")
			}
		}
	}
	if sel.HasLimit {
		emit(emitKeyword, "LIMIT")
		emit(emitValue, strconv.Itoa(sel.Limit))
	}
	if sel.Compound != nil {
		op := sel.Compound.Op
		if sel.Compound.All {
			op += " ALL"
		}
		emit(emitKeyword, op)
		emitSelect(sel.Compound.Right, emit)
	}
}

func emitTableRef(t TableRef, emit emitter) {
	emit(emitName, t.Table)
	if t.Alias != "" {
		emit(emitKeyword, "AS")
		emit(emitName, t.Alias)
	}
}

// Expression precedence levels, mirroring the parser's descent: parseExpr
// (OR) → parseAnd → parseNot → parsePredicate → parseOperand (additive) →
// parseMul → parsePrimary. The printer parenthesizes any child whose level
// is below what its grammatical position re-parses at, so printed text
// always reproduces the AST shape.
const (
	precOr        = 1
	precAnd       = 2
	precNot       = 3
	precPredicate = 4 // comparisons, IN, LIKE, BETWEEN, IS NULL, EXISTS
	precOperand   = 5 // + and -
	precMul       = 6 // * and /
	precAtom      = 7
)

func exprPrec(e Expr) int {
	switch v := e.(type) {
	case *Binary:
		switch v.Op {
		case "OR":
			return precOr
		case "AND":
			return precAnd
		case "+", "-":
			return precOperand
		case "*", "/":
			return precMul
		default:
			return precPredicate
		}
	case *Not:
		return precNot
	case *Between, *Like, *In, *IsNull, *Exists:
		return precPredicate
	default:
		return precAtom
	}
}

// startsWithKeyword reports whether the first token emitted for e lexes as a
// SQL keyword. The parser's NOT-prefix and `*`-as-multiplication lookaheads
// bail out when the next token is a keyword, so such children must be
// parenthesized even when precedence alone would not require it.
func startsWithKeyword(e Expr) bool {
	switch v := e.(type) {
	case *Agg:
		return IsKeyword(v.Fn)
	case *Exists, *Not:
		return true
	case *Binary:
		return startsWithKeyword(v.L)
	case *Between:
		return startsWithKeyword(v.E)
	case *Like:
		return startsWithKeyword(v.E)
	case *In:
		return startsWithKeyword(v.E)
	case *IsNull:
		return startsWithKeyword(v.E)
	default:
		return false
	}
}

func emitExpr(e Expr, emit emitter) { emitExprPrec(e, emit, precOr) }

// emitParen wraps an expression in explicit parentheses.
func emitParen(e Expr, emit emitter) {
	emit(emitPunct, "(")
	emitExprPrec(e, emit, precOr)
	emit(emitPunct, ")")
}

// emitChild renders a child expression that re-parses at minPrec, adding
// parentheses when the child binds looser (or when keywordGuard is set and
// the child's first token would derail the parser's lookahead).
func emitChild(e Expr, emit emitter, minPrec int, keywordGuard bool) {
	if exprPrec(e) < minPrec || (keywordGuard && startsWithKeyword(e)) {
		emitParen(e, emit)
		return
	}
	emitExprPrec(e, emit, minPrec)
}

func emitExprPrec(e Expr, emit emitter, minPrec int) {
	if exprPrec(e) < minPrec {
		emitParen(e, emit)
		return
	}
	switch v := e.(type) {
	case *ColumnRef:
		if v.Table != "" {
			emit(emitName, v.Table)
			emit(emitPunct, ".")
		}
		if v.Column == "*" {
			emit(emitKeyword, "*")
		} else {
			emit(emitName, v.Column)
		}
	case *Star:
		emit(emitKeyword, "*")
	case *Literal:
		if v.IsString {
			emit(emitString, v.Str)
		} else if v.Raw != "" {
			emit(emitValue, v.Raw)
		} else {
			emit(emitValue, strconv.FormatFloat(v.Num, 'g', -1, 64))
		}
	case *Agg:
		emit(emitFunc, v.Fn)
		if v.Distinct {
			emit(emitKeyword, "DISTINCT")
		}
		for i, a := range v.Args {
			if i > 0 {
				emit(emitPunct, ",")
			}
			emitChild(a, emit, precOperand, false)
		}
		emit(emitPunct, ")")
	case *Binary:
		switch v.Op {
		case "OR":
			emitChild(v.L, emit, precOr, false)
			emit(emitKeyword, v.Op)
			emitChild(v.R, emit, precAnd, false)
		case "AND":
			emitChild(v.L, emit, precAnd, false)
			emit(emitKeyword, v.Op)
			emitChild(v.R, emit, precNot, false)
		case "+", "-":
			emitChild(v.L, emit, precOperand, false)
			emit(emitKeyword, v.Op)
			emitChild(v.R, emit, precMul, false)
		case "*", "/":
			emitChild(v.L, emit, precMul, false)
			emit(emitKeyword, v.Op)
			// `*` doubles as the star token: the parser only reads it as
			// multiplication when the next token is not a keyword.
			emitChild(v.R, emit, precAtom, v.Op == "*")
		default: // comparisons
			emitChild(v.L, emit, precOperand, false)
			emit(emitKeyword, v.Op)
			emitChild(v.R, emit, precOperand, false)
		}
	case *Not:
		emit(emitKeyword, "NOT")
		// The parser's NOT-prefix rule only fires when the next token is not
		// a keyword, and it cannot chain (`NOT NOT x` needs parens).
		emitChild(v.E, emit, precPredicate, true)
	case *Between:
		emitChild(v.E, emit, precOperand, false)
		if v.Negate {
			emit(emitKeyword, "NOT BETWEEN")
		} else {
			emit(emitKeyword, "BETWEEN")
		}
		emitChild(v.Lo, emit, precOperand, false)
		emit(emitKeyword, "AND")
		emitChild(v.Hi, emit, precOperand, false)
	case *Like:
		emitChild(v.E, emit, precOperand, false)
		if v.Negate {
			emit(emitKeyword, "NOT LIKE")
		} else {
			emit(emitKeyword, "LIKE")
		}
		emitChild(v.Pattern, emit, precOperand, false)
	case *In:
		emitChild(v.E, emit, precOperand, false)
		if v.Negate {
			emit(emitKeyword, "NOT IN")
		} else {
			emit(emitKeyword, "IN")
		}
		emit(emitPunct, "(")
		if v.Sub != nil {
			emitSelect(v.Sub, emit)
		} else {
			for i, it := range v.List {
				if i > 0 {
					emit(emitPunct, ",")
				}
				emitChild(it, emit, precOperand, false)
			}
		}
		emit(emitPunct, ")")
	case *Subquery:
		emit(emitPunct, "(")
		emitSelect(v.Sel, emit)
		emit(emitPunct, ")")
	case *Exists:
		if v.Negate {
			emit(emitKeyword, "NOT")
		}
		emit(emitKeyword, "EXISTS")
		emit(emitPunct, "(")
		emitSelect(v.Sub, emit)
		emit(emitPunct, ")")
	case *IsNull:
		emitChild(v.E, emit, precOperand, false)
		if v.Negate {
			emit(emitKeyword, "IS NOT NULL")
		} else {
			emit(emitKeyword, "IS NULL")
		}
	}
}
