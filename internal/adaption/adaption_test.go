package adaption

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlexec"
)

// fixture mirrors the paper's TV domain enough to exercise every fixer.
func fixture() *schema.Database {
	channel := &schema.Table{
		Name:       "tv_channel",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber},
			{Name: "country", Type: schema.TypeText},
			{Name: "series_name", Type: schema.TypeText},
		},
		Rows: [][]schema.Value{
			{schema.N(1), schema.S("USA"), schema.S("Sky Radio")},
			{schema.N(2), schema.S("UK"), schema.S("Sky One")},
		},
	}
	cartoon := &schema.Table{
		Name:       "cartoon",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber},
			{Name: "channel_id", Type: schema.TypeNumber},
			{Name: "title", Type: schema.TypeText},
			{Name: "written_by", Type: schema.TypeText},
		},
		Rows: [][]schema.Value{
			{schema.N(1), schema.N(1), schema.S("Show A"), schema.S("Todd Casey")},
			{schema.N(2), schema.N(2), schema.S("Show B"), schema.S("Dana Flores")},
		},
	}
	return &schema.Database{
		Name:   "tv",
		Tables: []*schema.Table{channel, cartoon},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "cartoon", FromColumn: "channel_id", ToTable: "tv_channel", ToColumn: "id"},
		},
	}
}

func adapt(t *testing.T, sql string) (string, bool) {
	t.Helper()
	f := &Fixer{DB: fixture()}
	out, res := f.Adapt(sql)
	return out, res != nil
}

func TestValidSQLUnchanged(t *testing.T) {
	in := "SELECT country FROM tv_channel"
	out, ok := adapt(t, in)
	if !ok || out != in {
		t.Errorf("valid SQL perturbed: %q -> %q ok=%v", in, out, ok)
	}
}

func TestFixTableColumnMismatch(t *testing.T) {
	// title belongs to cartoon (T1), not tv_channel (T2): the Table 2 case.
	sql := "SELECT T2.title FROM cartoon AS T1 JOIN tv_channel AS T2 ON T1.channel_id = T2.id"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("not fixed: %q", out)
	}
	if !strings.Contains(out, "T1.title") {
		t.Errorf("qualifier not corrected: %q", out)
	}
}

func TestFixColumnAmbiguity(t *testing.T) {
	sql := "SELECT id FROM cartoon JOIN tv_channel ON channel_id = country"
	// id is ambiguous (both tables); channel_id/country unique.
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("ambiguity not fixed: %q", out)
	}
	if _, err := sqlexec.ExecSQL(fixture(), out); err != nil {
		t.Errorf("fixed SQL does not execute: %v (%q)", err, out)
	}
}

func TestFixMissingTable(t *testing.T) {
	// written_by qualified by cartoon, which is absent from FROM.
	sql := "SELECT country FROM tv_channel WHERE cartoon.written_by = 'Todd Casey'"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("missing table not fixed: %q", out)
	}
	if !strings.Contains(out, "JOIN cartoon") {
		t.Errorf("join not added: %q", out)
	}
}

func TestFixFunctionHallucination(t *testing.T) {
	sql := "SELECT CONCAT(series_name, ' ', country) FROM tv_channel"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("CONCAT not fixed: %q", out)
	}
	if strings.Contains(out, "CONCAT") {
		t.Errorf("CONCAT survived: %q", out)
	}
}

func TestFixSchemaHallucination(t *testing.T) {
	// series_names (extra s) does not exist; edit distance finds series_name.
	sql := "SELECT series_names FROM tv_channel"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("schema hallucination not fixed: %q", out)
	}
	if !strings.Contains(out, "series_name") || strings.Contains(out, "series_names") {
		t.Errorf("column not corrected: %q", out)
	}
}

func TestFixAggregationHallucination(t *testing.T) {
	sql := "SELECT COUNT(DISTINCT series_name, country) FROM tv_channel"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("multi-arg aggregate not fixed: %q", out)
	}
	if !strings.Contains(out, "COUNT(DISTINCT series_name)") {
		t.Errorf("DISTINCT not preserved on first column: %q", out)
	}
}

func TestFixUnknownTable(t *testing.T) {
	sql := "SELECT country FROM tv_channels" // misspelled table
	out, ok := adapt(t, sql)
	if !ok || !strings.Contains(out, "FROM tv_channel") {
		t.Errorf("table not corrected: %q ok=%v", out, ok)
	}
}

func TestUnparseableSQLFails(t *testing.T) {
	if _, ok := adapt(t, "not really sql((("); ok {
		t.Error("garbage input reported as fixed")
	}
}

func TestAdaptBoundedAttempts(t *testing.T) {
	// A query needing several fixes still terminates.
	sql := "SELECT CONCAT(series_names, countrys) FROM tv_channels"
	out, _ := adapt(t, sql)
	if out == "" {
		t.Error("Adapt returned empty SQL")
	}
}

func TestVotePicksMajority(t *testing.T) {
	db := fixture()
	cands := []string{
		"SELECT country FROM tv_channel WHERE id = 1", // minority result
		"SELECT country FROM tv_channel",              // majority (x3)
		"SELECT country FROM tv_channel",
		"SELECT country FROM tv_channel",
	}
	got, ok := Vote(db, cands, true)
	if !ok || got.SQL != "SELECT country FROM tv_channel" {
		t.Errorf("Vote = %q, ok=%v", got.SQL, ok)
	}
}

func TestVoteFixesBeforeVoting(t *testing.T) {
	db := fixture()
	cands := []string{
		"SELECT CONCAT(series_name, country) FROM tv_channel", // fixable
		"SELECT series_name FROM tv_channel",
	}
	got, ok := Vote(db, cands, true)
	if !ok {
		t.Fatal("vote failed")
	}
	if _, err := sqlexec.ExecSQL(db, got.SQL); err != nil {
		t.Errorf("voted SQL does not execute: %v", err)
	}
}

func TestVoteNoFixSkipsBroken(t *testing.T) {
	db := fixture()
	cands := []string{
		"SELECT CONCAT(series_name, country) FROM tv_channel", // broken, not fixed
		"SELECT series_name FROM tv_channel",
	}
	got, ok := Vote(db, cands, false)
	if !ok || got.SQL != "SELECT series_name FROM tv_channel" {
		t.Errorf("Vote(no-fix) = %q ok=%v", got.SQL, ok)
	}
}

func TestVoteAllBroken(t *testing.T) {
	if _, ok := Vote(fixture(), []string{"garbage((", "more(("}, true); ok {
		t.Error("vote over unusable candidates should fail")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"kitten", "sitting", 3}, {"abc", "abc", 0},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSignatureOrderSensitivity(t *testing.T) {
	res1, err := sqlexec.ExecSQL(fixture(), "SELECT country FROM tv_channel ORDER BY country ASC")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sqlexec.ExecSQL(fixture(), "SELECT country FROM tv_channel ORDER BY country DESC")
	if err != nil {
		t.Fatal(err)
	}
	if Signature(res1) == Signature(res2) {
		t.Error("ordered results with different orders should differ")
	}
}
