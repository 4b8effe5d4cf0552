package spider

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlir"
)

// Style selects the NL realization variant.
type Style int

// NL realization styles, one per benchmark split family.
const (
	StyleStandard  Style = iota // Spider: NL mentions schema terms directly
	StyleSyn                    // Spider-SYN: schema terms replaced by synonyms
	StyleRealistic              // Spider-Realistic: explicit column mentions dropped
	StyleDK                     // Spider-DK: domain-knowledge hypernyms
)

// CompositionClass labels the logical-operator-composition family a query
// belongs to. The SimLLM's prior (its "basic SQL knowledge") is correct for
// the easy classes and systematically naive for the hard ones; providing a
// demonstration with a matching composition corrects it (the paper's thesis).
type CompositionClass string

// Composition classes produced by the sampler.
const (
	ClassPlain         CompositionClass = "plain"
	ClassDistinct      CompositionClass = "distinct"
	ClassCountDistinct CompositionClass = "count_distinct"
	ClassJoin          CompositionClass = "join"
	ClassGroup         CompositionClass = "group"
	ClassGroupHaving   CompositionClass = "group_having"
	ClassOrderLimit    CompositionClass = "order_limit"
	ClassSuperlative   CompositionClass = "superlative"
	ClassArgmaxGroup   CompositionClass = "argmax_group"
	ClassInSub         CompositionClass = "in_sub"
	ClassExclusion     CompositionClass = "exclusion_simple"
	ClassExclusionJoin CompositionClass = "exclusion_join"
	ClassIntersect     CompositionClass = "intersect"
	ClassUnion         CompositionClass = "union"
)

// genExample is a sampled (SQL, NL) pair before corpus assembly.
type genExample struct {
	sel   *sqlir.Select
	nl    string
	class CompositionClass
}

// sampler bundles what templates need.
type sampler struct {
	db     *schema.Database
	spec   domainSpec
	rng    *rand.Rand
	values valueMemo
	style  Style
}

// topValueCount is how many of a column's most frequent values a sampled
// predicate draws from (groupHaving draws from the first 6 of them).
const topValueCount = 10

// valueKey names one column of one database.
type valueKey struct {
	db            *schema.Database
	table, column string
}

// valueMemo holds each column's RepresentativeValues(table, column,
// topValueCount) for one corpus, so a column's rows are counted and sorted
// once instead of once per sampled predicate. The databases are not
// modified while the corpus is sampled.
type valueMemo map[valueKey][]schema.Value

// topValues returns the column's most frequent values, most frequent first,
// ranking them on first use. Callers must not modify the slice.
func (s *sampler) topValues(t *schema.Table, c schema.Column) []schema.Value {
	k := valueKey{s.db, t.Name, c.Name}
	vals, ok := s.values[k]
	if !ok {
		vals = s.db.RepresentativeValues(t.Name, c.Name, topValueCount)
		s.values[k] = vals
	}
	return vals
}

// templates lists the sampling functions with weights tuned to yield a
// long-tailed skeleton distribution like Spider's (the paper reports
// Detail:Keywords:Structure:Clause END-state proportions of 912:708:363:59).
var templates = []struct {
	weight int
	fn     func(*sampler) *genExample
}{
	{10, (*sampler).projection},
	{9, (*sampler).projectionWhere},
	{6, (*sampler).projectionWhereTwo},
	{5, (*sampler).distinctProjection},
	{7, (*sampler).countAll},
	{7, (*sampler).aggColumn},
	{4, (*sampler).countDistinct},
	{9, (*sampler).joinProjection},
	{4, (*sampler).joinTwoHop},
	{6, (*sampler).groupByCount},
	{5, (*sampler).groupHaving},
	{4, (*sampler).groupJoinCount},
	{7, (*sampler).orderByLimit},
	{5, (*sampler).superlativeSubquery},
	{4, (*sampler).argmaxGroup},
	{5, (*sampler).inSubquery},
	{4, (*sampler).notInSubquery},
	{4, (*sampler).exceptJoin},
	{3, (*sampler).intersectJoin},
	{4, (*sampler).unionTwoValues},
	{4, (*sampler).betweenPredicate},
	{4, (*sampler).likePredicate},
}

var totalTemplateWeight = func() int {
	s := 0
	for _, t := range templates {
		s += t.weight
	}
	return s
}()

// sampleExample draws one example; it retries templates that do not apply to
// the database shape.
func sampleExample(db *schema.Database, spec domainSpec, rng *rand.Rand, values valueMemo, style Style) *genExample {
	s := &sampler{db: db, spec: spec, rng: rng, values: values, style: style}
	for tries := 0; tries < 64; tries++ {
		r := rng.Intn(totalTemplateWeight)
		for _, t := range templates {
			r -= t.weight
			if r < 0 {
				if ex := t.fn(s); ex != nil {
					return ex
				}
				break
			}
		}
	}
	// Projection always applies.
	return s.projection()
}

// ---------- column/value pickers ----------

func (s *sampler) anyTable() *schema.Table {
	return s.db.Tables[s.rng.Intn(len(s.db.Tables))]
}

// dataColumns returns non-key columns of t.
func dataColumns(t *schema.Table) []schema.Column {
	var out []schema.Column
	for _, c := range t.Columns {
		if c.Name == "id" || strings.HasSuffix(c.Name, "_id") {
			continue
		}
		out = append(out, c)
	}
	return out
}

func (s *sampler) pickCol(t *schema.Table) (schema.Column, bool) {
	cols := dataColumns(t)
	if len(cols) == 0 {
		return schema.Column{}, false
	}
	return cols[s.rng.Intn(len(cols))], true
}

func (s *sampler) pickTypedCol(t *schema.Table, typ schema.ColType) (schema.Column, bool) {
	var cands []schema.Column
	for _, c := range dataColumns(t) {
		if c.Type == typ {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return schema.Column{}, false
	}
	return cands[s.rng.Intn(len(cands))], true
}

// pickValue draws an existing value from a column so predicates are
// non-trivially selective.
func (s *sampler) pickValue(t *schema.Table, c schema.Column) (schema.Value, bool) {
	vals := s.topValues(t, c)
	if len(vals) == 0 {
		return schema.Value{}, false
	}
	return vals[s.rng.Intn(len(vals))], true
}

// fkPair returns a child table, its FK column and the parent table.
func (s *sampler) fkPair() (child *schema.Table, fk schema.ForeignKey, parent *schema.Table, ok bool) {
	if len(s.db.ForeignKeys) == 0 {
		return nil, schema.ForeignKey{}, nil, false
	}
	f := s.db.ForeignKeys[s.rng.Intn(len(s.db.ForeignKeys))]
	return s.db.Table(f.FromTable), f, s.db.Table(f.ToTable), true
}

func lit(v schema.Value) sqlir.Expr {
	if v.Kind == schema.KindStr {
		return &sqlir.Literal{IsString: true, Str: v.Str}
	}
	return &sqlir.Literal{Num: v.Num, Raw: trimFloat(v.Num)}
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

func col(table, name string) *sqlir.ColumnRef { return &sqlir.ColumnRef{Table: table, Column: name} }

// ---------- NL building blocks ----------

var cmpOps = []string{">", "<", ">=", "<=", "="}

func (s *sampler) cmpOpFor(c schema.Column) string {
	if c.Type == schema.TypeText {
		return "="
	}
	return cmpOps[s.rng.Intn(len(cmpOps))]
}

func opPhrase(op string) string {
	switch op {
	case ">":
		return "greater than"
	case "<":
		return "less than"
	case ">=":
		return "at least"
	case "<=":
		return "at most"
	case "!=":
		return "not"
	default:
		return ""
	}
}

// colNL renders a column's NL name under the current style.
func (s *sampler) colNL(c schema.Column) string {
	name := c.NLName
	if name == "" {
		name = strings.ReplaceAll(c.Name, "_", " ")
	}
	switch s.style {
	case StyleSyn:
		return synonymize(name)
	case StyleDK:
		return hypernym(name, c)
	default:
		return name
	}
}

func (s *sampler) tableNL(t *schema.Table, plural bool) string {
	name := t.NLName
	if name == "" {
		name = strings.ReplaceAll(t.Name, "_", " ")
	}
	if s.style == StyleSyn {
		name = synonymize(name)
	}
	if plural {
		return pluralize(name)
	}
	return name
}

func pluralize(s string) string {
	switch {
	case strings.HasSuffix(s, "s"), strings.HasSuffix(s, "sh"), strings.HasSuffix(s, "ch"):
		return s + "es"
	case strings.HasSuffix(s, "y") && len(s) > 1 && !strings.ContainsRune("aeiou", rune(s[len(s)-2])):
		return s[:len(s)-1] + "ies"
	default:
		return s + "s"
	}
}

// synonymize replaces whole words using synonymMap.
func synonymize(phrase string) string {
	words := strings.Fields(phrase)
	for i, w := range words {
		if syn, ok := synonymMap[strings.ToLower(w)]; ok {
			words[i] = syn
		}
	}
	out := strings.Join(words, " ")
	if syn, ok := synonymMap[strings.ToLower(phrase)]; ok {
		out = syn
	}
	return out
}

// hypernym renders a column name as a vaguer domain-knowledge phrase.
func hypernym(name string, c schema.Column) string {
	if c.Type == schema.TypeNumber {
		return "recorded figure for " + name
	}
	return "listed " + name
}

// wherePhrase renders one comparison predicate in NL.
func (s *sampler) wherePhrase(c schema.Column, op string, v schema.Value) string {
	val := v.String()
	if s.style == StyleRealistic {
		// Drop the explicit column mention (the Spider-Realistic stress).
		switch op {
		case ">":
			return "with over " + val
		case "<":
			return "with under " + val
		case ">=":
			return "with no less than " + val
		case "<=":
			return "with no more than " + val
		default:
			return "matching " + val
		}
	}
	phrase := opPhrase(op)
	if phrase == "" {
		return fmt.Sprintf("whose %s is %s", s.colNL(c), val)
	}
	return fmt.Sprintf("whose %s is %s %s", s.colNL(c), phrase, val)
}

// ---------- templates ----------

func (s *sampler) projection() *genExample {
	t := s.anyTable()
	c, ok := s.pickCol(t)
	if !ok {
		return nil
	}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	nl := fmt.Sprintf("What are the %ss of all %s", s.colNL(c), s.tableNL(t, true))
	if c2, ok2 := s.pickCol(t); ok2 && c2.Name != c.Name && s.rng.Float64() < 0.35 {
		sel.Items = append(sel.Items, sqlir.SelectItem{Expr: col("", c2.Name)})
		nl = fmt.Sprintf("List the %s and %s of every %s", s.colNL(c), s.colNL(c2), s.tableNL(t, false))
	}
	nl += s.maybeOrderTail(sel, t, 0.25)
	return &genExample{sel: sel, nl: nl + "?", class: ClassPlain}
}

func (s *sampler) projectionWhere() *genExample {
	t := s.anyTable()
	c, ok := s.pickCol(t)
	if !ok {
		return nil
	}
	w, ok := s.pickCol(t)
	if !ok || w.Name == c.Name {
		return nil
	}
	v, ok := s.pickValue(t, w)
	if !ok {
		return nil
	}
	op := s.cmpOpFor(w)
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.Where = &sqlir.Binary{Op: op, L: col("", w.Name), R: lit(v)}
	nl := fmt.Sprintf("What are the %ss of %s %s?", s.colNL(c), s.tableNL(t, true), s.wherePhrase(w, op, v))
	return &genExample{sel: sel, nl: nl, class: ClassPlain}
}

func (s *sampler) projectionWhereTwo() *genExample {
	t := s.anyTable()
	cols := dataColumns(t)
	if len(cols) < 3 {
		return nil
	}
	perm := s.rng.Perm(len(cols))
	c, w1, w2 := cols[perm[0]], cols[perm[1]], cols[perm[2]]
	v1, ok1 := s.pickValue(t, w1)
	v2, ok2 := s.pickValue(t, w2)
	if !ok1 || !ok2 {
		return nil
	}
	op1, op2 := s.cmpOpFor(w1), s.cmpOpFor(w2)
	logic := "AND"
	word := "and"
	if s.rng.Float64() < 0.35 {
		logic, word = "OR", "or"
	}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.Where = &sqlir.Binary{Op: logic,
		L: &sqlir.Binary{Op: op1, L: col("", w1.Name), R: lit(v1)},
		R: &sqlir.Binary{Op: op2, L: col("", w2.Name), R: lit(v2)},
	}
	nl := fmt.Sprintf("What are the %ss of %s %s %s %s?", s.colNL(c), s.tableNL(t, true),
		s.wherePhrase(w1, op1, v1), word, s.wherePhrase(w2, op2, v2))
	return &genExample{sel: sel, nl: nl, class: ClassPlain}
}

func (s *sampler) distinctProjection() *genExample {
	t := s.anyTable()
	c, ok := s.pickTypedCol(t, schema.TypeText)
	if !ok {
		return nil
	}
	sel := sqlir.NewSelect()
	sel.Distinct = true
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	nl := fmt.Sprintf("What are the distinct %ss of %s?", s.colNL(c), s.tableNL(t, true))
	if w, ok := s.pickCol(t); ok && w.Name != c.Name && s.rng.Float64() < 0.4 {
		if v, okv := s.pickValue(t, w); okv {
			op := s.cmpOpFor(w)
			sel.Where = &sqlir.Binary{Op: op, L: col("", w.Name), R: lit(v)}
			nl = fmt.Sprintf("What are the distinct %ss of %s %s?", s.colNL(c), s.tableNL(t, true), s.wherePhrase(w, op, v))
		}
	}
	return &genExample{sel: sel, nl: nl, class: ClassDistinct}
}

func (s *sampler) countAll() *genExample {
	t := s.anyTable()
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: &sqlir.Agg{Fn: "COUNT", Args: []sqlir.Expr{&sqlir.Star{}}}}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	nl := fmt.Sprintf("How many %s are there?", s.tableNL(t, true))
	if w, ok := s.pickCol(t); ok && s.rng.Float64() < 0.5 {
		if v, okv := s.pickValue(t, w); okv {
			op := s.cmpOpFor(w)
			sel.Where = &sqlir.Binary{Op: op, L: col("", w.Name), R: lit(v)}
			nl = fmt.Sprintf("How many %s are there %s?", s.tableNL(t, true), s.wherePhrase(w, op, v))
		}
	}
	return &genExample{sel: sel, nl: nl, class: ClassPlain}
}

var aggWords = map[string]string{"AVG": "average", "MAX": "maximum", "MIN": "minimum", "SUM": "total"}

// maybeWhere attaches a comparison predicate to sel with the given
// probability and returns the NL fragment ("" when none was added). The
// operator variety multiplies the Keywords-level skeleton space, giving the
// corpus a long tail like Spider's.
func (s *sampler) maybeWhere(sel *sqlir.Select, t *schema.Table, avoid string, prob float64) string {
	if s.rng.Float64() >= prob {
		return ""
	}
	w, ok := s.pickCol(t)
	if !ok || w.Name == avoid {
		return ""
	}
	v, ok := s.pickValue(t, w)
	if !ok {
		return ""
	}
	op := s.cmpOpFor(w)
	pred := &sqlir.Binary{Op: op, L: col("", w.Name), R: lit(v)}
	if sel.Where == nil {
		sel.Where = pred
	} else {
		sel.Where = &sqlir.Binary{Op: "AND", L: sel.Where, R: pred}
	}
	return " " + s.wherePhrase(w, op, v)
}

// maybeOrderTail appends an ORDER BY (and sometimes LIMIT) to sel and
// returns the NL fragment.
func (s *sampler) maybeOrderTail(sel *sqlir.Select, t *schema.Table, prob float64) string {
	if s.rng.Float64() >= prob || len(sel.GroupBy) > 0 || sel.Compound != nil {
		return ""
	}
	o, ok := s.pickTypedCol(t, schema.TypeNumber)
	if !ok {
		return ""
	}
	desc := s.rng.Float64() < 0.5
	sel.OrderBy = []sqlir.OrderItem{{Expr: col("", o.Name), Desc: desc}}
	dir := "ascending"
	if desc {
		dir = "descending"
	}
	frag := fmt.Sprintf(", sorted by %s in %s order", s.colNL(o), dir)
	if s.rng.Float64() < 0.4 {
		n := 1 + s.rng.Intn(6)
		sel.Limit, sel.HasLimit = n, true
		frag += fmt.Sprintf(", showing only %d", n)
	}
	return frag
}

func (s *sampler) aggColumn() *genExample {
	t := s.anyTable()
	c, ok := s.pickTypedCol(t, schema.TypeNumber)
	if !ok {
		return nil
	}
	fns := []string{"AVG", "MAX", "MIN", "SUM"}
	fn := fns[s.rng.Intn(len(fns))]
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: &sqlir.Agg{Fn: fn, Args: []sqlir.Expr{col("", c.Name)}}}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	nl := fmt.Sprintf("What is the %s %s of %s", aggWords[fn], s.colNL(c), s.tableNL(t, true))
	if fn == "MAX" || fn == "MIN" {
		if s.rng.Float64() < 0.3 {
			other := "MIN"
			if fn == "MIN" {
				other = "MAX"
			}
			sel.Items = append(sel.Items, sqlir.SelectItem{Expr: &sqlir.Agg{Fn: other, Args: []sqlir.Expr{col("", c.Name)}}})
			nl = fmt.Sprintf("What are the %s and %s %s of %s", aggWords[fn], aggWords[other], s.colNL(c), s.tableNL(t, true))
		}
	}
	nl += s.maybeWhere(sel, t, c.Name, 0.45)
	return &genExample{sel: sel, nl: nl + "?", class: ClassPlain}
}

func (s *sampler) countDistinct() *genExample {
	t := s.anyTable()
	c, ok := s.pickTypedCol(t, schema.TypeText)
	if !ok {
		return nil
	}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: &sqlir.Agg{Fn: "COUNT", Distinct: true, Args: []sqlir.Expr{col("", c.Name)}}}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	nl := fmt.Sprintf("How many different %ss appear among %s", s.colNL(c), s.tableNL(t, true))
	nl += s.maybeWhere(sel, t, c.Name, 0.4)
	return &genExample{sel: sel, nl: nl + "?", class: ClassCountDistinct}
}

func (s *sampler) joinProjection() *genExample {
	child, fk, parent, ok := s.fkPair()
	if !ok || child == nil || parent == nil {
		return nil
	}
	cc, ok := s.pickCol(child)
	if !ok {
		return nil
	}
	pc, ok := s.pickCol(parent)
	if !ok {
		return nil
	}
	v, ok := s.pickValue(parent, pc)
	if !ok {
		return nil
	}
	op := s.cmpOpFor(pc)
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("T1", cc.Name)}}
	sel.From = sqlir.From{
		Base: sqlir.TableRef{Table: child.Name, Alias: "T1"},
		Joins: []sqlir.Join{{
			Table: sqlir.TableRef{Table: parent.Name, Alias: "T2"},
			Left:  col("T1", fk.FromColumn), Right: col("T2", fk.ToColumn),
		}},
	}
	sel.Where = &sqlir.Binary{Op: op, L: col("T2", pc.Name), R: lit(v)}
	nl := fmt.Sprintf("What are the %ss of %s whose %s has %s %s %s",
		s.colNL(cc), s.tableNL(child, true), s.tableNL(parent, false),
		s.colNL(pc), orEqual(opPhrase(op)), v.String())
	// Optional extra child-side predicate widens the skeleton tail.
	if cc2, ok2 := s.pickCol(child); ok2 && cc2.Name != cc.Name && s.rng.Float64() < 0.3 {
		if v2, okv := s.pickValue(child, cc2); okv {
			op2 := s.cmpOpFor(cc2)
			sel.Where = &sqlir.Binary{Op: "AND", L: sel.Where,
				R: &sqlir.Binary{Op: op2, L: col("T1", cc2.Name), R: lit(v2)}}
			nl += " and " + s.wherePhrase(cc2, op2, v2)
		}
	}
	return &genExample{sel: sel, nl: nl + "?", class: ClassJoin}
}

func orEqual(phrase string) string {
	if phrase == "" {
		return "equal to"
	}
	return phrase
}

// joinTwoHop builds a three-table chain join when the FK graph allows it.
func (s *sampler) joinTwoHop() *genExample {
	for _, fk1 := range s.db.ForeignKeys {
		for _, fk2 := range s.db.ForeignKeys {
			if fk1.FromTable == fk2.FromTable && fk1.ToTable != fk2.ToTable {
				// bridge: fk1.From references two parents
				bridge := s.db.Table(fk1.FromTable)
				p1 := s.db.Table(fk1.ToTable)
				p2 := s.db.Table(fk2.ToTable)
				c1, ok1 := s.pickCol(p1)
				c2, ok2 := s.pickCol(p2)
				if !ok1 || !ok2 {
					continue
				}
				v, okv := s.pickValue(p2, c2)
				if !okv {
					continue
				}
				sel := sqlir.NewSelect()
				sel.Items = []sqlir.SelectItem{{Expr: col("T2", c1.Name)}}
				sel.From = sqlir.From{
					Base: sqlir.TableRef{Table: bridge.Name, Alias: "T1"},
					Joins: []sqlir.Join{
						{Table: sqlir.TableRef{Table: p1.Name, Alias: "T2"},
							Left: col("T1", fk1.FromColumn), Right: col("T2", fk1.ToColumn)},
						{Table: sqlir.TableRef{Table: p2.Name, Alias: "T3"},
							Left: col("T1", fk2.FromColumn), Right: col("T3", fk2.ToColumn)},
					},
				}
				op := s.cmpOpFor(c2)
				sel.Where = &sqlir.Binary{Op: op, L: col("T3", c2.Name), R: lit(v)}
				nl := fmt.Sprintf("What are the %ss of %s involved in %s whose %s %s is %s %s?",
					s.colNL(c1), s.tableNL(p1, true), s.tableNL(bridge, true),
					s.tableNL(p2, false), s.colNL(c2), orEqual(opPhrase(op)), v.String())
				return &genExample{sel: sel, nl: nl, class: ClassJoin}
			}
		}
	}
	return nil
}

func (s *sampler) groupByCount() *genExample {
	t := s.anyTable()
	c, ok := s.pickTypedCol(t, schema.TypeText)
	if !ok {
		return nil
	}
	sel := sqlir.NewSelect()
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.GroupBy = []*sqlir.ColumnRef{col("", c.Name)}
	var nl string
	if num, okN := s.pickTypedCol(t, schema.TypeNumber); okN && s.rng.Float64() < 0.35 {
		fn := []string{"AVG", "SUM", "MAX", "MIN"}[s.rng.Intn(4)]
		sel.Items = []sqlir.SelectItem{
			{Expr: col("", c.Name)},
			{Expr: &sqlir.Agg{Fn: fn, Args: []sqlir.Expr{col("", num.Name)}}},
		}
		nl = fmt.Sprintf("For each %s, what is the %s %s of %s", s.colNL(c), aggWords[fn], s.colNL(num), s.tableNL(t, true))
	} else {
		sel.Items = []sqlir.SelectItem{
			{Expr: col("", c.Name)},
			{Expr: &sqlir.Agg{Fn: "COUNT", Args: []sqlir.Expr{&sqlir.Star{}}}},
		}
		nl = fmt.Sprintf("For each %s, how many %s are there", s.colNL(c), s.tableNL(t, true))
	}
	nl += s.maybeWhere(sel, t, c.Name, 0.3)
	return &genExample{sel: sel, nl: nl + "?", class: ClassGroup}
}

func (s *sampler) groupHaving() *genExample {
	t := s.anyTable()
	c, ok := s.pickTypedCol(t, schema.TypeText)
	if !ok {
		return nil
	}
	n := 2 + s.rng.Intn(3)
	op := []string{">=", ">", "="}[s.rng.Intn(3)]
	opWord := map[string]string{">=": "at least", ">": "more than", "=": "exactly"}[op]
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.GroupBy = []*sqlir.ColumnRef{col("", c.Name)}
	var nl string
	if num, okN := s.pickTypedCol(t, schema.TypeNumber); okN && s.rng.Float64() < 0.3 {
		vals := s.topValues(t, num)
		if len(vals) > 6 {
			vals = vals[:6]
		}
		if len(vals) > 0 {
			v := vals[s.rng.Intn(len(vals))]
			fn := []string{"AVG", "SUM"}[s.rng.Intn(2)]
			sel.Having = &sqlir.Binary{Op: op,
				L: &sqlir.Agg{Fn: fn, Args: []sqlir.Expr{col("", num.Name)}},
				R: lit(v),
			}
			nl = fmt.Sprintf("Which %ss have a %s %s of %s %s?", s.colNL(c), aggWords[fn], s.colNL(num), opWord, v.String())
			return &genExample{sel: sel, nl: nl, class: ClassGroupHaving}
		}
	}
	sel.Having = &sqlir.Binary{Op: op,
		L: &sqlir.Agg{Fn: "COUNT", Args: []sqlir.Expr{&sqlir.Star{}}},
		R: &sqlir.Literal{Num: float64(n), Raw: fmt.Sprintf("%d", n)},
	}
	nl = fmt.Sprintf("Which %ss are shared by %s %d %s?", s.colNL(c), opWord, n, s.tableNL(t, true))
	return &genExample{sel: sel, nl: nl, class: ClassGroupHaving}
}

func (s *sampler) groupJoinCount() *genExample {
	child, fk, parent, ok := s.fkPair()
	if !ok || child == nil || parent == nil {
		return nil
	}
	pc, ok := s.pickTypedCol(parent, schema.TypeText)
	if !ok {
		return nil
	}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{
		{Expr: col("T2", pc.Name)},
		{Expr: &sqlir.Agg{Fn: "COUNT", Args: []sqlir.Expr{&sqlir.Star{}}}},
	}
	sel.From = sqlir.From{
		Base: sqlir.TableRef{Table: child.Name, Alias: "T1"},
		Joins: []sqlir.Join{{
			Table: sqlir.TableRef{Table: parent.Name, Alias: "T2"},
			Left:  col("T1", fk.FromColumn), Right: col("T2", fk.ToColumn),
		}},
	}
	sel.GroupBy = []*sqlir.ColumnRef{col("T2", pc.Name)}
	nl := fmt.Sprintf("For each %s of a %s, count the number of %s.",
		s.colNL(pc), s.tableNL(parent, false), s.tableNL(child, true))
	return &genExample{sel: sel, nl: nl, class: ClassGroup}
}

func (s *sampler) orderByLimit() *genExample {
	t := s.anyTable()
	c, ok := s.pickCol(t)
	if !ok {
		return nil
	}
	o, ok := s.pickTypedCol(t, schema.TypeNumber)
	if !ok || o.Name == c.Name {
		return nil
	}
	n := 1 + s.rng.Intn(5)
	desc := s.rng.Float64() < 0.6
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.OrderBy = []sqlir.OrderItem{{Expr: col("", o.Name), Desc: desc}}
	sel.Limit, sel.HasLimit = n, true
	dir := "highest"
	if !desc {
		dir = "lowest"
	}
	nl := fmt.Sprintf("List the %ss of the %d %s with the %s %s.",
		s.colNL(c), n, s.tableNL(t, true), dir, s.colNL(o))
	return &genExample{sel: sel, nl: nl, class: ClassOrderLimit}
}

func (s *sampler) superlativeSubquery() *genExample {
	t := s.anyTable()
	c, ok := s.pickCol(t)
	if !ok {
		return nil
	}
	o, ok := s.pickTypedCol(t, schema.TypeNumber)
	if !ok || o.Name == c.Name {
		return nil
	}
	fn := "MAX"
	dir := "highest"
	if s.rng.Float64() < 0.4 {
		fn, dir = "MIN", "lowest"
	}
	inner := sqlir.NewSelect()
	inner.Items = []sqlir.SelectItem{{Expr: &sqlir.Agg{Fn: fn, Args: []sqlir.Expr{col("", o.Name)}}}}
	inner.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.Where = &sqlir.Binary{Op: "=", L: col("", o.Name), R: &sqlir.Subquery{Sel: inner}}
	nl := fmt.Sprintf("What are the %ss of every %s that has the %s %s?",
		s.colNL(c), s.tableNL(t, false), dir, s.colNL(o))
	return &genExample{sel: sel, nl: nl, class: ClassSuperlative}
}

func (s *sampler) argmaxGroup() *genExample {
	t := s.anyTable()
	c, ok := s.pickTypedCol(t, schema.TypeText)
	if !ok {
		return nil
	}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.GroupBy = []*sqlir.ColumnRef{col("", c.Name)}
	sel.OrderBy = []sqlir.OrderItem{{Expr: &sqlir.Agg{Fn: "COUNT", Args: []sqlir.Expr{&sqlir.Star{}}}, Desc: true}}
	sel.Limit, sel.HasLimit = 1, true
	nl := fmt.Sprintf("Which %s is most common among %s?", s.colNL(c), s.tableNL(t, true))
	return &genExample{sel: sel, nl: nl, class: ClassArgmaxGroup}
}

func (s *sampler) inSubquery() *genExample {
	child, fk, parent, ok := s.fkPair()
	if !ok || child == nil || parent == nil {
		return nil
	}
	cc, ok := s.pickCol(child)
	if !ok {
		return nil
	}
	pc, ok := s.pickCol(parent)
	if !ok {
		return nil
	}
	v, ok := s.pickValue(parent, pc)
	if !ok {
		return nil
	}
	inner := sqlir.NewSelect()
	inner.Items = []sqlir.SelectItem{{Expr: col("", fk.ToColumn)}}
	inner.From = sqlir.From{Base: sqlir.TableRef{Table: parent.Name}}
	op := s.cmpOpFor(pc)
	inner.Where = &sqlir.Binary{Op: op, L: col("", pc.Name), R: lit(v)}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", cc.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: child.Name}}
	sel.Where = &sqlir.In{E: col("", fk.FromColumn), Sub: inner}
	nl := fmt.Sprintf("Find the %ss of %s belonging to a %s whose %s is %s %s.",
		s.colNL(cc), s.tableNL(child, true), s.tableNL(parent, false),
		s.colNL(pc), orEqual(opPhrase(op)), v.String())
	return &genExample{sel: sel, nl: nl, class: ClassInSub}
}

func (s *sampler) notInSubquery() *genExample {
	child, fk, parent, ok := s.fkPair()
	if !ok || child == nil || parent == nil {
		return nil
	}
	pc, ok := s.pickCol(parent)
	if !ok {
		return nil
	}
	inner := sqlir.NewSelect()
	inner.Items = []sqlir.SelectItem{{Expr: col("", fk.FromColumn)}}
	inner.From = sqlir.From{Base: sqlir.TableRef{Table: child.Name}}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", pc.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: parent.Name}}
	sel.Where = &sqlir.In{E: col("", fk.ToColumn), Sub: inner, Negate: true}
	nl := fmt.Sprintf("What are the %ss of %s that do not have any %s",
		s.colNL(pc), s.tableNL(parent, true), s.tableNL(child, false))
	if cc, okc := s.pickCol(child); okc && s.rng.Float64() < 0.4 {
		if v, okv := s.pickValue(child, cc); okv {
			op := s.cmpOpFor(cc)
			inner.Where = &sqlir.Binary{Op: op, L: col("", cc.Name), R: lit(v)}
			nl = fmt.Sprintf("What are the %ss of %s that do not have a %s %s",
				s.colNL(pc), s.tableNL(parent, true), s.tableNL(child, false),
				s.wherePhrase(cc, op, v))
		}
	}
	return &genExample{sel: sel, nl: nl + "?", class: ClassExclusion}
}

// exceptJoin reproduces the paper's Figure 1 pattern: entities not related to
// a qualifying child row, requiring EXCEPT with a join for set semantics.
func (s *sampler) exceptJoin() *genExample {
	child, fk, parent, ok := s.fkPair()
	if !ok || child == nil || parent == nil {
		return nil
	}
	pc, ok := s.pickTypedCol(parent, schema.TypeText)
	if !ok {
		return nil
	}
	cc, ok := s.pickCol(child)
	if !ok {
		return nil
	}
	v, ok := s.pickValue(child, cc)
	if !ok {
		return nil
	}
	left := sqlir.NewSelect()
	left.Items = []sqlir.SelectItem{{Expr: col("", pc.Name)}}
	left.From = sqlir.From{Base: sqlir.TableRef{Table: parent.Name}}
	right := sqlir.NewSelect()
	right.Items = []sqlir.SelectItem{{Expr: col("T1", pc.Name)}}
	right.From = sqlir.From{
		Base: sqlir.TableRef{Table: parent.Name, Alias: "T1"},
		Joins: []sqlir.Join{{
			Table: sqlir.TableRef{Table: child.Name, Alias: "T2"},
			Left:  col("T1", fk.ToColumn), Right: col("T2", fk.FromColumn),
		}},
	}
	right.Where = &sqlir.Binary{Op: "=", L: col("T2", cc.Name), R: lit(v)}
	left.Compound = &sqlir.Compound{Op: "EXCEPT", Right: right}
	nl := fmt.Sprintf("What are the %ss of %s that are not linked to %s whose %s is %s?",
		s.colNL(pc), s.tableNL(parent, true), s.tableNL(child, true), s.colNL(cc), v.String())
	return &genExample{sel: left, nl: nl, class: ClassExclusionJoin}
}

func (s *sampler) intersectJoin() *genExample {
	child, fk, parent, ok := s.fkPair()
	if !ok || child == nil || parent == nil {
		return nil
	}
	pc, ok := s.pickTypedCol(parent, schema.TypeText)
	if !ok {
		return nil
	}
	cc, ok := s.pickTypedCol(child, schema.TypeText)
	if !ok {
		return nil
	}
	vals := s.topValues(child, cc)
	if len(vals) < 2 {
		return nil
	}
	v1, v2 := vals[0], vals[1]
	mk := func(v schema.Value) *sqlir.Select {
		q := sqlir.NewSelect()
		q.Items = []sqlir.SelectItem{{Expr: col("T1", pc.Name)}}
		q.From = sqlir.From{
			Base: sqlir.TableRef{Table: parent.Name, Alias: "T1"},
			Joins: []sqlir.Join{{
				Table: sqlir.TableRef{Table: child.Name, Alias: "T2"},
				Left:  col("T1", fk.ToColumn), Right: col("T2", fk.FromColumn),
			}},
		}
		q.Where = &sqlir.Binary{Op: "=", L: col("T2", cc.Name), R: lit(v)}
		return q
	}
	left := mk(v1)
	left.Compound = &sqlir.Compound{Op: "INTERSECT", Right: mk(v2)}
	nl := fmt.Sprintf("Which %ss of %s are linked to both a %s with %s %s and one with %s %s?",
		s.colNL(pc), s.tableNL(parent, true), s.tableNL(child, false),
		s.colNL(cc), v1.String(), s.colNL(cc), v2.String())
	return &genExample{sel: left, nl: nl, class: ClassIntersect}
}

func (s *sampler) unionTwoValues() *genExample {
	t := s.anyTable()
	c, ok := s.pickCol(t)
	if !ok {
		return nil
	}
	w, ok := s.pickTypedCol(t, schema.TypeText)
	if !ok || w.Name == c.Name {
		return nil
	}
	vals := s.topValues(t, w)
	if len(vals) < 2 {
		return nil
	}
	v1, v2 := vals[0], vals[1]
	mk := func(v schema.Value) *sqlir.Select {
		q := sqlir.NewSelect()
		q.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
		q.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
		q.Where = &sqlir.Binary{Op: "=", L: col("", w.Name), R: lit(v)}
		return q
	}
	left := mk(v1)
	left.Compound = &sqlir.Compound{Op: "UNION", Right: mk(v2)}
	nl := fmt.Sprintf("What are the %ss of %s whose %s is either %s or %s?",
		s.colNL(c), s.tableNL(t, true), s.colNL(w), v1.String(), v2.String())
	return &genExample{sel: left, nl: nl, class: ClassUnion}
}

func (s *sampler) betweenPredicate() *genExample {
	t := s.anyTable()
	c, ok := s.pickCol(t)
	if !ok {
		return nil
	}
	w, ok := s.pickTypedCol(t, schema.TypeNumber)
	if !ok || w.Name == c.Name {
		return nil
	}
	vals := s.topValues(t, w)
	if len(vals) < 2 {
		return nil
	}
	lo, hi := vals[0].Num, vals[1].Num
	if lo > hi {
		lo, hi = hi, lo
	}
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.Where = &sqlir.Between{E: col("", w.Name),
		Lo: &sqlir.Literal{Num: lo, Raw: trimFloat(lo)},
		Hi: &sqlir.Literal{Num: hi, Raw: trimFloat(hi)}}
	nl := fmt.Sprintf("What are the %ss of %s whose %s is between %s and %s?",
		s.colNL(c), s.tableNL(t, true), s.colNL(w), trimFloat(lo), trimFloat(hi))
	return &genExample{sel: sel, nl: nl, class: ClassPlain}
}

func (s *sampler) likePredicate() *genExample {
	t := s.anyTable()
	c, ok := s.pickCol(t)
	if !ok {
		return nil
	}
	w, ok := s.pickTypedCol(t, schema.TypeText)
	if !ok || w.Name == c.Name {
		return nil
	}
	v, ok := s.pickValue(t, w)
	if !ok {
		return nil
	}
	word := strings.Fields(v.Str)[0]
	sel := sqlir.NewSelect()
	sel.Items = []sqlir.SelectItem{{Expr: col("", c.Name)}}
	sel.From = sqlir.From{Base: sqlir.TableRef{Table: t.Name}}
	sel.Where = &sqlir.Like{E: col("", w.Name), Pattern: &sqlir.Literal{IsString: true, Str: "%" + word + "%"}}
	nl := fmt.Sprintf("What are the %ss of %s whose %s contains the word %s?",
		s.colNL(c), s.tableNL(t, true), s.colNL(w), word)
	return &genExample{sel: sel, nl: nl, class: ClassPlain}
}
