package sqlir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLexBasic(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM t WHERE x >= 3.5 AND name = 'bob'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokenKind{TokKeyword, TokIdent, TokComma, TokIdent, TokKeyword,
		TokIdent, TokKeyword, TokIdent, TokOp, TokNumber, TokKeyword,
		TokIdent, TokOp, TokString, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got kind %d want %d (%q)", i, kinds[i], want[i], toks[i].Text)
		}
	}
}

func TestLexOperators(t *testing.T) {
	cases := map[string]string{
		"a <= b": "<=", "a >= b": ">=", "a != b": "!=", "a <> b": "!=",
		"a < b": "<", "a > b": ">", "a = b": "=",
	}
	for input, wantOp := range cases {
		toks, err := Lex(input)
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		if toks[1].Kind != TokOp || toks[1].Text != wantOp {
			t.Errorf("%q: got %q want %q", input, toks[1].Text, wantOp)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"SELECT 'unterminated", "a ! b", "a # b"} {
		if _, err := Lex(bad); err == nil {
			t.Errorf("Lex(%q): expected error", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Each case parses, prints canonically, and re-parses to the same text.
	cases := []string{
		"SELECT name FROM singer",
		"SELECT * FROM singer",
		"SELECT DISTINCT country FROM singer",
		"SELECT COUNT(*) FROM singer",
		"SELECT name, age FROM singer WHERE age > 20",
		"SELECT name FROM singer WHERE age > 20 AND country = 'US'",
		"SELECT name FROM singer WHERE age > 20 OR age < 10",
		"SELECT name FROM singer WHERE NOT age > 20",
		"SELECT name FROM singer WHERE age BETWEEN 20 AND 30",
		"SELECT name FROM singer WHERE name LIKE '%bob%'",
		"SELECT name FROM singer WHERE name NOT LIKE '%bob%'",
		"SELECT name FROM singer WHERE age IN (20, 30)",
		"SELECT name FROM singer WHERE age NOT IN (SELECT age FROM band)",
		"SELECT T1.name FROM singer AS T1 JOIN band AS T2 ON T1.band_id = T2.id",
		"SELECT country, COUNT(*) FROM singer GROUP BY country",
		"SELECT country FROM singer GROUP BY country HAVING COUNT(*) > 3",
		"SELECT name FROM singer ORDER BY age DESC LIMIT 5",
		"SELECT name FROM singer ORDER BY age ASC",
		"SELECT name FROM singer UNION SELECT name FROM band",
		"SELECT name FROM singer INTERSECT SELECT name FROM band",
		"SELECT name FROM singer EXCEPT SELECT name FROM band",
		"SELECT name FROM singer WHERE age = (SELECT MAX(age) FROM singer)",
		"SELECT COUNT(DISTINCT country) FROM singer",
		"SELECT AVG(age), MIN(age), MAX(age) FROM singer",
		"SELECT name FROM singer WHERE age IS NULL",
		"SELECT name FROM singer WHERE age IS NOT NULL",
	}
	for _, sql := range cases {
		sel, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		printed := String(sel)
		sel2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", sql, printed, err)
		}
		if String(sel2) != printed {
			t.Errorf("print not canonical for %q:\n first=%q\nsecond=%q", sql, printed, String(sel2))
		}
	}
}

func TestParseBareAlias(t *testing.T) {
	sel, err := Parse("SELECT T1.name FROM singer T1")
	if err != nil {
		t.Fatal(err)
	}
	if sel.From.Base.Alias != "T1" {
		t.Errorf("bare alias not parsed: %+v", sel.From.Base)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT name",
		"SELECT name FROM",
		"SELECT name FROM t WHERE",
		"SELECT name FROM t GROUP name",
		"SELECT name FROM t LIMIT x",
		"SELECT name FROM t extra garbage",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

func TestParseHallucinatedFunction(t *testing.T) {
	sel, err := Parse("SELECT CONCAT(first_name, ' ', last_name) FROM players")
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := sel.Items[0].Expr.(*Agg)
	if !ok || agg.Fn != "CONCAT" {
		t.Fatalf("CONCAT not parsed as function node: %#v", sel.Items[0].Expr)
	}
	if len(agg.Args) != 3 {
		t.Errorf("CONCAT args = %d, want 3", len(agg.Args))
	}
}

// skeletonOf is the Detail-Level skeleton string of SQL that must parse.
func skeletonOf(sql string) string { return SkeletonString(MustParse(sql)) }

func TestSkeletonPaperExample(t *testing.T) {
	sql := "SELECT Country FROM TV_CHANNEL EXCEPT SELECT T1.Country FROM TV_CHANNEL AS T1 JOIN CARTOON AS T2 ON T1.id = T2.Channel WHERE T2.Written_by = 'Todd Casey'"
	got := skeletonOf(sql)
	want := "SELECT _ FROM _ EXCEPT SELECT _ FROM _ JOIN _ ON _ = _ WHERE _ = _"
	if got != want {
		t.Errorf("skeleton mismatch:\n got %q\nwant %q", got, want)
	}
}

func TestSkeletonNotIn(t *testing.T) {
	sql := "SELECT Country FROM TV_CHANNEL WHERE id NOT IN (SELECT Channel FROM CARTOON WHERE Written_by = 'Todd Casey')"
	got := skeletonOf(sql)
	want := "SELECT _ FROM _ WHERE _ NOT IN ( SELECT _ FROM _ WHERE _ = _ )"
	if got != want {
		t.Errorf("skeleton mismatch:\n got %q\nwant %q", got, want)
	}
}

func TestSkeletonMasksValuesAndLimit(t *testing.T) {
	got := skeletonOf("SELECT name FROM singer ORDER BY age DESC LIMIT 5")
	want := "SELECT _ FROM _ ORDER BY _ DESC LIMIT _"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestSkeletonCollapsesQualifiedNames(t *testing.T) {
	a := skeletonOf("SELECT T1.name FROM singer AS T1 WHERE T1.age > 5")
	b := skeletonOf("SELECT name FROM singer WHERE age > 5")
	if a != b {
		t.Errorf("qualified and bare skeletons differ: %q vs %q", a, b)
	}
}

// TestSkeletonInvalidSQL: a skeleton needs a parse, and unparsable SQL has
// none — Parse rejects it, and callers that skeletonize SQL text (llm.Sim
// grading a prompt's demonstrations) skip what does not parse.
func TestSkeletonInvalidSQL(t *testing.T) {
	if sel, err := Parse("not sql at all ((("); err == nil {
		t.Errorf("invalid SQL parsed, skeleton %q", SkeletonString(sel))
	}
}

func TestWalkSelectsVisitsSubqueries(t *testing.T) {
	sql := "SELECT name FROM a WHERE x IN (SELECT y FROM b WHERE z = (SELECT MAX(w) FROM c)) EXCEPT SELECT name FROM d"
	sel := MustParse(sql)
	count := 0
	WalkSelects(sel, func(*Select) { count++ })
	if count != 4 {
		t.Errorf("WalkSelects visited %d selects, want 4", count)
	}
}

func TestCompoundChain(t *testing.T) {
	sel := MustParse("SELECT a FROM t UNION SELECT b FROM u UNION SELECT c FROM v")
	n := 0
	for s := sel; s != nil; {
		n++
		if s.Compound == nil {
			break
		}
		s = s.Compound.Right
	}
	if n != 3 {
		t.Errorf("compound chain length %d, want 3", n)
	}
}

// TestQuickLexNeverPanics property-tests that the lexer returns an error or
// tokens but never panics on arbitrary input.
func TestQuickLexNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Lex(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickParseNeverPanics property-tests the full parser on arbitrary input.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickSkeletonIdempotent checks that skeletons contain no identifiers:
// re-lexing a skeleton yields only keywords, underscores and parens.
func TestQuickSkeletonIdempotent(t *testing.T) {
	cases := []string{
		"SELECT name FROM singer WHERE age NOT IN (SELECT age FROM band WHERE x = 3)",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 3",
		"SELECT T1.a FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id WHERE T2.b LIKE '%x%'",
	}
	for _, sql := range cases {
		sk := skeletonOf(sql)
		for _, tok := range strings.Fields(sk) {
			if tok == "_" || tok == "(" || tok == ")" {
				continue
			}
			for _, w := range strings.Fields(tok) {
				if !IsKeyword(w) && !isCmpOpWord(w) {
					t.Errorf("skeleton %q of %q contains non-keyword %q", sk, sql, w)
				}
			}
		}
	}
}

func isCmpOpWord(w string) bool {
	switch w {
	case "=", "!=", "<", "<=", ">", ">=", "*", "+", "-", "/":
		return true
	}
	return false
}
