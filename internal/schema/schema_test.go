package schema

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func sampleDB() *Database {
	return &Database{
		Name: "d",
		Tables: []*Table{
			{
				Name: "a", PrimaryKey: "id",
				Columns: []Column{{Name: "id", Type: TypeNumber}, {Name: "x", Type: TypeText}, {Name: "y", Type: TypeNumber}},
				Rows: [][]Value{
					{N(1), S("p"), N(10)},
					{N(2), S("q"), N(20)},
					{N(3), S("p"), N(30)},
				},
			},
			{
				Name: "b", PrimaryKey: "id",
				Columns: []Column{{Name: "id", Type: TypeNumber}, {Name: "a_id", Type: TypeNumber}, {Name: "z", Type: TypeText}},
				Rows: [][]Value{
					{N(1), N(1), S("m")},
					{N(2), N(2), S("n")},
				},
			},
			{
				Name: "c", PrimaryKey: "id",
				Columns: []Column{{Name: "id", Type: TypeNumber}, {Name: "b_id", Type: TypeNumber}},
				Rows:    [][]Value{{N(1), N(1)}},
			},
		},
		ForeignKeys: []ForeignKey{
			{FromTable: "b", FromColumn: "a_id", ToTable: "a", ToColumn: "id"},
			{FromTable: "c", FromColumn: "b_id", ToTable: "b", ToColumn: "id"},
		},
	}
}

func TestValueCompare(t *testing.T) {
	if N(1).Compare(N(2)) >= 0 || N(2).Compare(N(1)) <= 0 || !N(3).Equal(N(3)) {
		t.Error("numeric compare broken")
	}
	if S("Apple").Compare(S("apple")) != 0 {
		t.Error("string compare should be case-insensitive")
	}
	if !Null().IsNull() || Null().Equal(N(0)) {
		t.Error("null semantics broken")
	}
}

func TestTableLookup(t *testing.T) {
	db := sampleDB()
	if db.Table("A") == nil || db.Table("nope") != nil {
		t.Error("case-insensitive table lookup broken")
	}
	tb := db.Table("a")
	if tb.ColIndex("X") != 1 || tb.ColIndex("gone") != -1 {
		t.Error("column lookup broken")
	}
}

func TestAdjacency(t *testing.T) {
	db := sampleDB()
	adj := db.Adjacency()
	if !adj["a"]["b"] || !adj["b"]["a"] || !adj["b"]["c"] {
		t.Errorf("adjacency wrong: %v", adj)
	}
	if adj["a"]["c"] {
		t.Error("a-c should not be adjacent")
	}
}

func TestFKBetween(t *testing.T) {
	db := sampleDB()
	if _, ok := db.FKBetween("a", "b"); !ok {
		t.Error("fk a-b missing")
	}
	if _, ok := db.FKBetween("b", "a"); !ok {
		t.Error("fk direction should not matter")
	}
	if _, ok := db.FKBetween("a", "c"); ok {
		t.Error("no fk between a and c")
	}
}

func TestCloneIsDeep(t *testing.T) {
	db := sampleDB()
	cp := db.Clone()
	cp.Tables[0].Rows[0][1] = S("mutated")
	if db.Tables[0].Rows[0][1].Str == "mutated" {
		t.Error("clone shares row storage")
	}
}

func TestPruneKeepsPKAndFK(t *testing.T) {
	db := sampleDB()
	// Keep a.x and b.z; drop c.
	pruned := db.Prune([][]bool{{false, true, false}, {false, false, true}, nil})
	if pruned.Table("c") != nil {
		t.Error("pruned table c survived")
	}
	a := pruned.Table("a")
	if !a.HasColumn("id") {
		t.Error("primary key pruned away")
	}
	b := pruned.Table("b")
	if !b.HasColumn("a_id") {
		t.Error("foreign key column linking kept tables pruned away")
	}
	if len(pruned.ForeignKeys) != 1 {
		t.Errorf("fk list wrong: %v", pruned.ForeignKeys)
	}
	// A pruned schema is a prompt's view: it carries no rows.
	if len(a.Rows) != 0 || len(b.Rows) != 0 {
		t.Errorf("pruned tables carry rows: a has %d, b has %d", len(a.Rows), len(b.Rows))
	}
}

// TestIndex: the pruning index carries lower-cased names, each item's
// name-token variants and which columns hold a foreign key, and concurrent
// first calls share one index.
func TestIndex(t *testing.T) {
	db := sampleDB()
	db.Tables[1].Name, db.Tables[1].NLName = "B", "Band Members"
	db.Tables[1].Columns[1].NLName = "  "
	var wg sync.WaitGroup
	got := make([]*Index, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = db.Index()
		}()
	}
	wg.Wait()
	x := got[0]
	for _, y := range got[1:] {
		if y != x {
			t.Fatal("Index built more than once")
		}
	}
	b := x.Tables[1]
	if b.Name != "b" || !reflect.DeepEqual(b.Variants, [][]string{{"b"}, {"band", "members"}}) {
		t.Errorf("table b indexed as %+v", b.Item)
	}
	if aID := b.Columns[1]; !reflect.DeepEqual(aID.Variants, [][]string{{"a", "id"}}) || !reflect.DeepEqual(aID.fkTo, []int{0}) {
		t.Errorf("b.a_id indexed as %+v", aID)
	}
	if !b.Columns[0].key || b.Columns[2].key || b.Columns[2].fkTo != nil {
		t.Errorf("b's key and FK columns indexed as %+v", b.Columns)
	}
	if i, ok := x.Position("b"); !ok || i != 1 || !x.Adjacency["b"]["c"] {
		t.Errorf("Position(b) = %d, %v; adjacency %v", i, ok, x.Adjacency)
	}
	if _, ok := x.Position("B"); ok {
		t.Error("Position takes lower-cased names")
	}
}

func TestRepresentativeValuesFrequencyOrder(t *testing.T) {
	db := sampleDB()
	vals := db.RepresentativeValues("a", "x", 5)
	if len(vals) != 2 || vals[0].Str != "p" {
		t.Errorf("want most frequent first, got %v", vals)
	}
	if got := db.RepresentativeValues("a", "x", 1); len(got) != 1 {
		t.Errorf("max not applied: %v", got)
	}
}

func TestDDLContainsEverything(t *testing.T) {
	ddl := sampleDB().DDL()
	for _, want := range []string{"a(id, x, y)", "FK b.a_id -> a.id"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}

// Property: Compare is antisymmetric and Equal is reflexive over values.
func TestQuickValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		va, vb := N(a), N(b)
		return va.Compare(vb) == -vb.Compare(va) && va.Equal(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		va, vb := S(a), S(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestFingerprintIsContentAddressed(t *testing.T) {
	a, b := sampleDB(), sampleDB()
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("databases differing only in name must share a fingerprint (they are plan-compatible)")
	}

	// Structural changes must change it: column type, column name, table
	// order, extra column.
	typ := sampleDB()
	typ.Tables[0].Columns[1].Type = TypeNumber
	if typ.Fingerprint() == a.Fingerprint() {
		t.Error("column type change did not change fingerprint")
	}
	col := sampleDB()
	col.Tables[0].Columns[1].Name = "renamed"
	if col.Fingerprint() == a.Fingerprint() {
		t.Error("column rename did not change fingerprint")
	}
	order := sampleDB()
	order.Tables[0], order.Tables[1] = order.Tables[1], order.Tables[0]
	if order.Fingerprint() == a.Fingerprint() {
		t.Error("table reorder did not change fingerprint")
	}
	extra := sampleDB()
	extra.Tables[2].Columns = append(extra.Tables[2].Columns, Column{Name: "w", Type: TypeText})
	if extra.Fingerprint() == a.Fingerprint() {
		t.Error("extra column did not change fingerprint")
	}

	// Row data is excluded.
	rows := sampleDB()
	rows.Tables[0].Rows = nil
	if rows.Fingerprint() != a.Fingerprint() {
		t.Error("row data must not affect the fingerprint")
	}
}

func TestFingerprintCached(t *testing.T) {
	d := sampleDB()
	fp := d.Fingerprint()
	if fp == 0 {
		t.Fatal("fingerprint must never be 0")
	}
	if d.Fingerprint() != fp {
		t.Error("cached fingerprint changed")
	}
}
