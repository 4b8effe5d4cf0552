package sqlir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a SQL string from the subset grammar into a Select AST.
func Parse(input string) (*Select, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	sel, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokSemi {
		p.next()
	}
	if p.cur().Kind != TokEOF {
		return nil, fmt.Errorf("sqlir: trailing input at offset %d: %q", p.cur().Pos, p.cur().Text)
	}
	return sel, nil
}

// MustParse parses SQL known to be valid; it panics on error. It is the
// parse helper the tests of several packages share.
func MustParse(input string) *Select {
	sel, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return sel
}

type parser struct {
	toks  []Token
	pos   int
	depth int
}

// maxParseDepth bounds recursive descent so pathological inputs (deeply
// nested parentheses or subqueries) fail with an error instead of
// exhausting the goroutine stack.
const maxParseDepth = 200

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("sqlir: expression nesting deeper than %d", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.cur().Kind == kind && (text == "" || p.cur().Text == text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.cur().Kind == kind && (text == "" || p.cur().Text == text) {
		return p.next(), nil
	}
	return Token{}, fmt.Errorf("sqlir: expected %q, got %q at offset %d", text, p.cur().Text, p.cur().Pos)
}

func (p *parser) parseQuery() (*Select, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptKeyword("UNION"):
			op = "UNION"
		case p.acceptKeyword("INTERSECT"):
			op = "INTERSECT"
		case p.acceptKeyword("EXCEPT"):
			op = "EXCEPT"
		default:
			return sel, nil
		}
		all := false
		if op == "UNION" && p.acceptKeyword("ALL") {
			all = true
		}
		right, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		// Attach at the deepest right spine so `a UNION b UNION c` chains.
		leaf := sel
		for leaf.Compound != nil {
			leaf = leaf.Compound.Right
		}
		leaf.Compound = &Compound{Op: op, All: all, Right: right}
	}
}

func (p *parser) parseSelect() (*Select, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := NewSelect()
	sel.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokComma, "") {
			break
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, c)
			if !p.accept(TokComma, "") {
				break
			}
		}
		if p.acceptKeyword("HAVING") {
			h, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Having = h
		}
	}
	if p.acceptKeyword("ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokComma, "") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, fmt.Errorf("sqlir: bad LIMIT %q", t.Text)
		}
		sel.Limit = n
		sel.HasLimit = true
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.cur().Kind == TokStar {
		p.next()
		return SelectItem{Expr: &Star{}}, nil
	}
	e, err := p.parseOperand()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t, err := p.expect(TokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.Text
	}
	return item, nil
}

func (p *parser) parseFrom() (From, error) {
	base, err := p.parseTableRef()
	if err != nil {
		return From{}, err
	}
	from := From{Base: base}
	for {
		// Accept INNER JOIN / LEFT [OUTER] JOIN / JOIN uniformly as equi-join.
		if p.acceptKeyword("INNER") || p.acceptKeyword("LEFT") {
			p.acceptKeyword("OUTER")
			if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
				return From{}, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return From{}, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return From{}, err
		}
		left, err := p.parseColumnRef()
		if err != nil {
			return From{}, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return From{}, err
		}
		right, err := p.parseColumnRef()
		if err != nil {
			return From{}, err
		}
		from.Joins = append(from.Joins, Join{Table: tr, Left: left, Right: right})
	}
	return from, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Table: t.Text}
	if p.acceptKeyword("AS") {
		a, err := p.expect(TokIdent, "")
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a.Text
	} else if p.cur().Kind == TokIdent {
		// bare alias: `FROM cartoon T1`
		tr.Alias = p.next().Text
	}
	return tr, nil
}

func (p *parser) parseColumnRef() (*ColumnRef, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	c := &ColumnRef{Column: t.Text}
	if p.cur().Kind == TokDot {
		p.next()
		if p.cur().Kind == TokStar {
			p.next()
			c.Table = t.Text
			c.Column = "*"
			return c, nil
		}
		col, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		c.Table = t.Text
		c.Column = col.Text
	}
	return c, nil
}

// parseExpr parses a boolean expression (OR-level).
func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.cur().Kind == TokKeyword && p.cur().Text == "NOT" && p.peek().Kind != TokKeyword {
		// NOT as prefix of a predicate like `NOT a = b`; `NOT IN` etc. are
		// handled inside parsePredicate.
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	if p.cur().Kind == TokKeyword && p.cur().Text == "EXISTS" ||
		(p.cur().Kind == TokKeyword && p.cur().Text == "NOT" &&
			p.peek().Kind == TokKeyword && p.peek().Text == "EXISTS") {
		negate := p.acceptKeyword("NOT")
		p.next() // EXISTS
		if _, err := p.expect(TokLParen, ""); err != nil {
			return nil, err
		}
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return &Exists{Sub: sub, Negate: negate}, nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.cur().Kind == TokKeyword && p.cur().Text == "NOT" {
		nk := p.peek()
		if nk.Kind == TokKeyword && (nk.Text == "IN" || nk.Text == "LIKE" || nk.Text == "BETWEEN") {
			p.next()
			negate = true
		}
	}
	switch {
	case p.cur().Kind == TokOp && isCmpOp(p.cur().Text):
		op := p.next().Text
		right, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: left, R: right}, nil
	case p.acceptKeyword("IN"):
		if _, err := p.expect(TokLParen, ""); err != nil {
			return nil, err
		}
		if p.cur().Kind == TokKeyword && p.cur().Text == "SELECT" {
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen, ""); err != nil {
				return nil, err
			}
			return &In{E: left, Sub: sub, Negate: negate}, nil
		}
		var list []Expr
		for {
			e, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(TokComma, "") {
				break
			}
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return &In{E: left, List: list, Negate: negate}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Between{E: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Like{E: left, Pattern: pat, Negate: negate}, nil
	case p.acceptKeyword("IS"):
		neg := p.acceptKeyword("NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: left, Negate: neg}, nil
	}
	return left, nil
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// parseOperand parses an arithmetic expression (additive level).
func (p *parser) parseOperand() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOp && (p.cur().Text == "+" || p.cur().Text == "-") {
		op := p.next().Text
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for (p.cur().Kind == TokOp && p.cur().Text == "/") ||
		(p.cur().Kind == TokStar && p.peek().Kind != TokKeyword && p.peek().Kind != TokEOF && p.peek().Kind != TokRParen && p.peek().Kind != TokComma) {
		op := p.next().Text
		if op == "*" {
			op = "*"
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		n, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlir: bad number %q", t.Text)
		}
		return &Literal{Num: n, Raw: t.Text}, nil
	case TokString:
		p.next()
		return &Literal{IsString: true, Str: t.Text}, nil
	case TokLParen:
		p.next()
		if p.cur().Kind == TokKeyword && p.cur().Text == "SELECT" {
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen, ""); err != nil {
				return nil, err
			}
			return &Subquery{Sel: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ""); err != nil {
			return nil, err
		}
		return e, nil
	case TokKeyword:
		if AggFuncs[t.Text] {
			p.next()
			if _, err := p.expect(TokLParen, ""); err != nil {
				return nil, err
			}
			agg := &Agg{Fn: t.Text}
			agg.Distinct = p.acceptKeyword("DISTINCT")
			if p.cur().Kind == TokStar {
				p.next()
				agg.Args = append(agg.Args, &Star{})
			} else {
				for {
					a, err := p.parseOperand()
					if err != nil {
						return nil, err
					}
					agg.Args = append(agg.Args, a)
					if !p.accept(TokComma, "") {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen, ""); err != nil {
				return nil, err
			}
			return agg, nil
		}
		return nil, fmt.Errorf("sqlir: unexpected keyword %q at offset %d", t.Text, t.Pos)
	case TokIdent:
		// Identifier that is a hallucinated function call, e.g. CONCAT(a, b):
		// parse it into an Agg-shaped node so adaption can see and fix it.
		if p.peek().Kind == TokLParen && !IsKeyword(t.Text) {
			p.next()
			p.next() // '('
			fn := &Agg{Fn: strings.ToUpper(t.Text)}
			if p.cur().Kind != TokRParen {
				for {
					a, err := p.parseOperand()
					if err != nil {
						return nil, err
					}
					fn.Args = append(fn.Args, a)
					if !p.accept(TokComma, "") {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen, ""); err != nil {
				return nil, err
			}
			return fn, nil
		}
		return p.parseColumnRef()
	}
	return nil, fmt.Errorf("sqlir: unexpected token %q at offset %d", t.Text, t.Pos)
}
