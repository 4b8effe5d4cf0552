// Package schema defines the database model shared by the corpus generator,
// the execution engine, the schema-pruning module and the prompt builder:
// tables, typed columns, primary/foreign keys and in-memory rows.
package schema

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ColType is the column data type.
type ColType int

// Supported column types.
const (
	TypeText ColType = iota
	TypeNumber
)

func (t ColType) String() string {
	if t == TypeNumber {
		return "number"
	}
	return "text"
}

// Value is a single cell value. The zero Value is NULL.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
}

// ValueKind discriminates Value variants.
type ValueKind int

// Value kinds.
const (
	KindNull ValueKind = iota
	KindStr
	KindNum
)

// S returns a string Value.
func S(s string) Value { return Value{Kind: KindStr, Str: s} }

// N returns a numeric Value.
func N(n float64) Value { return Value{Kind: KindNum, Num: n} }

// Null returns the NULL Value.
func Null() Value { return Value{} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value for display and for result comparison.
func (v Value) String() string {
	switch v.Kind {
	case KindStr:
		return v.Str
	case KindNum:
		return strconv.FormatFloat(v.Num, 'g', 12, 64)
	default:
		return "NULL"
	}
}

// Compare orders two values: NULL < numbers < strings, numbers numerically,
// strings lexicographically (case-insensitive, matching SQLite's NOCASE-ish
// behaviour the corpus relies on).
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		return int(v.Kind) - int(o.Kind)
	}
	switch v.Kind {
	case KindNum:
		switch {
		case v.Num < o.Num:
			return -1
		case v.Num > o.Num:
			return 1
		}
		return 0
	case KindStr:
		a, b := strings.ToLower(v.Str), strings.ToLower(o.Str)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	return 0
}

// Equal reports value equality under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
	// NLName is the natural-language rendering of the column used by the NL
	// realizer ("birth date" for birth_date).
	NLName string
}

// Table is a named relation with columns and rows.
type Table struct {
	Name       string
	NLName     string // natural-language table name
	Columns    []Column
	PrimaryKey string // primary key column name ("" when none)
	Rows       [][]Value
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the table has the named column.
func (t *Table) HasColumn(name string) bool { return t.ColIndex(name) >= 0 }

// ForeignKey links FromTable.FromColumn to ToTable.ToColumn (a primary key).
type ForeignKey struct {
	FromTable  string
	FromColumn string
	ToTable    string
	ToColumn   string
}

// Database is a named schema plus data.
type Database struct {
	Name        string
	Tables      []*Table
	ForeignKeys []ForeignKey

	// fp caches Fingerprint (0 = not yet computed). Schemas are immutable
	// once handed to the execution engine, so the first computed value
	// stays valid; Clone and Prune build fresh Databases with a clear
	// cache.
	fp atomic.Uint64
}

// Fingerprint hashes the database's structural identity: table order,
// column names and types. The database name is deliberately excluded —
// plans reference tables and columns by name within the schema, never the
// database name, so two databases that differ only in name are
// plan-compatible and share compiled plans (tenant clones registered from
// one template schema are the motivating case). Row data is excluded too.
// The execution engine keys prepared-statement reuse on it, so two
// databases with equal fingerprints must be plan-compatible. The value is
// computed once and cached; do not mutate the schema after the engine has
// seen it.
func (d *Database) Fingerprint() uint64 {
	if v := d.fp.Load(); v != 0 {
		return v
	}
	h := fnv.New64a()
	write := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, t := range d.Tables {
		write(t.Name)
		for _, c := range t.Columns {
			write(c.Name)
			h.Write([]byte{byte(c.Type)})
		}
		h.Write([]byte{1})
	}
	v := h.Sum64()
	if v == 0 {
		v = 1 // reserve 0 as the "uncomputed" sentinel
	}
	d.fp.Store(v)
	return v
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table {
	for _, t := range d.Tables {
		if strings.EqualFold(t.Name, name) {
			return t
		}
	}
	return nil
}

// TableNames returns all table names in declaration order.
func (d *Database) TableNames() []string {
	names := make([]string, len(d.Tables))
	for i, t := range d.Tables {
		names[i] = t.Name
	}
	return names
}

// TablesWithColumn returns the names of tables containing the column.
func (d *Database) TablesWithColumn(col string) []string {
	var out []string
	for _, t := range d.Tables {
		if t.HasColumn(col) {
			out = append(out, t.Name)
		}
	}
	return out
}

// Adjacency returns the undirected FK graph over table names: for each table,
// the set of tables it shares a foreign-primary key edge with.
func (d *Database) Adjacency() map[string]map[string]bool {
	adj := make(map[string]map[string]bool, len(d.Tables))
	for _, t := range d.Tables {
		adj[strings.ToLower(t.Name)] = map[string]bool{}
	}
	for _, fk := range d.ForeignKeys {
		a, b := strings.ToLower(fk.FromTable), strings.ToLower(fk.ToTable)
		if adj[a] == nil || adj[b] == nil {
			continue
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	return adj
}

// FKBetween returns a foreign key connecting tables a and b (either
// direction) and whether one exists.
func (d *Database) FKBetween(a, b string) (ForeignKey, bool) {
	for _, fk := range d.ForeignKeys {
		if strings.EqualFold(fk.FromTable, a) && strings.EqualFold(fk.ToTable, b) {
			return fk, true
		}
		if strings.EqualFold(fk.FromTable, b) && strings.EqualFold(fk.ToTable, a) {
			return fk, true
		}
	}
	return ForeignKey{}, false
}

// Clone deep-copies the database (rows are shared copy-on-nothing slices
// copied shallowly at the row level; callers never mutate cells in place).
func (d *Database) Clone() *Database {
	nd := &Database{Name: d.Name, ForeignKeys: append([]ForeignKey(nil), d.ForeignKeys...)}
	for _, t := range d.Tables {
		nt := &Table{
			Name:       t.Name,
			NLName:     t.NLName,
			Columns:    append([]Column(nil), t.Columns...),
			PrimaryKey: t.PrimaryKey,
			Rows:       make([][]Value, len(t.Rows)),
		}
		for i, r := range t.Rows {
			nt.Rows[i] = append([]Value(nil), r...)
		}
		nd.Tables = append(nd.Tables, nt)
	}
	return nd
}

// Prune returns the schema of the kept tables and, within them, of the kept
// columns (plus primary keys, which are always retained so join semantics
// survive), with the foreign keys between kept tables. It copies no rows:
// a pruned schema is what a prompt shows, and queries run against the full
// database. keepCols maps lower-cased table name to the set of lower-cased
// column names to keep; a nil set keeps all.
func (d *Database) Prune(keepTables []string, keepCols map[string]map[string]bool) *Database {
	keepT := make(map[string]bool, len(keepTables))
	for _, t := range keepTables {
		keepT[strings.ToLower(t)] = true
	}
	nd := &Database{Name: d.Name}
	for _, t := range d.Tables {
		if !keepT[strings.ToLower(t.Name)] {
			continue
		}
		cols := keepCols[strings.ToLower(t.Name)]
		nt := &Table{Name: t.Name, NLName: t.NLName, PrimaryKey: t.PrimaryKey}
		for _, c := range t.Columns {
			keep := cols == nil || cols[strings.ToLower(c.Name)] ||
				strings.EqualFold(c.Name, t.PrimaryKey)
			if !keep {
				// FK columns referenced by kept foreign keys must survive too.
				for _, fk := range d.ForeignKeys {
					if strings.EqualFold(fk.FromTable, t.Name) && strings.EqualFold(fk.FromColumn, c.Name) && keepT[strings.ToLower(fk.ToTable)] {
						keep = true
						break
					}
				}
			}
			if keep {
				nt.Columns = append(nt.Columns, c)
			}
		}
		nd.Tables = append(nd.Tables, nt)
	}
	for _, fk := range d.ForeignKeys {
		if keepT[strings.ToLower(fk.FromTable)] && keepT[strings.ToLower(fk.ToTable)] {
			nd.ForeignKeys = append(nd.ForeignKeys, fk)
		}
	}
	return nd
}

// RepresentativeValues returns up to max distinct values of the column for
// prompt rendering, most frequent first (the BRIDGE-style value subset the
// paper cites [19]).
func (d *Database) RepresentativeValues(table, column string, max int) []Value {
	t := d.Table(table)
	if t == nil {
		return nil
	}
	ci := t.ColIndex(column)
	if ci < 0 {
		return nil
	}
	freq := map[string]int{}
	rep := map[string]Value{}
	for _, r := range t.Rows {
		v := r[ci]
		if v.IsNull() {
			continue
		}
		k := v.String()
		freq[k]++
		rep[k] = v
	}
	keys := make([]string, 0, len(freq))
	for k := range freq {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if freq[keys[i]] != freq[keys[j]] {
			return freq[keys[i]] > freq[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > max {
		keys = keys[:max]
	}
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = rep[k]
	}
	return out
}

// DDL renders a compact schema description used in prompts:
//
//	table(col1, col2, ...); PK=..., FK a.x->b.y
func (d *Database) DDL() string {
	var sb strings.Builder
	for _, t := range d.Tables {
		sb.WriteString(t.Name)
		sb.WriteByte('(')
		for i, c := range t.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name)
		}
		sb.WriteString(")\n")
	}
	for _, fk := range d.ForeignKeys {
		fmt.Fprintf(&sb, "FK %s.%s -> %s.%s\n", fk.FromTable, fk.FromColumn, fk.ToTable, fk.ToColumn)
	}
	return sb.String()
}
