package prompt

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/schema"
)

func demoDB() *schema.Database {
	return &schema.Database{
		Name: "d",
		Tables: []*schema.Table{{
			Name:       "singer",
			PrimaryKey: "id",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TypeNumber},
				{Name: "name", Type: schema.TypeText},
			},
		}},
		ForeignKeys: []schema.ForeignKey{{FromTable: "singer", FromColumn: "id", ToTable: "band", ToColumn: "id"}},
	}
}

func TestTokens(t *testing.T) {
	if Tokens("") != 0 {
		t.Error("empty string should cost 0 tokens")
	}
	if Tokens("abcd") != 1 || Tokens("abcde") != 2 {
		t.Errorf("4-char heuristic broken: %d %d", Tokens("abcd"), Tokens("abcde"))
	}
}

func TestBuildContainsSections(t *testing.T) {
	demos := []Demo{{DB: demoDB(), NL: "How many singers?", SQL: "SELECT COUNT(*) FROM singer"}}
	r := Build("-- inst", slices.Values(demos), demoDB(), "List names.", 0)
	for _, want := range []string{"-- inst", DemoHeader, TaskHeader, "singer(id, name)", "Q: List names.", "SQL: SELECT COUNT(*) FROM singer", "FK singer.id -> band.id"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("prompt missing %q:\n%s", want, r.Text)
		}
	}
	if r.DemosUsed != 1 {
		t.Errorf("DemosUsed = %d", r.DemosUsed)
	}
	if r.InputTokens != Tokens(r.Text) {
		t.Error("token accounting mismatch")
	}
}

func TestBudgetLimitsDemos(t *testing.T) {
	var demos []Demo
	for i := 0; i < 50; i++ {
		demos = append(demos, Demo{DB: demoDB(), NL: "How many singers are there in total?", SQL: "SELECT COUNT(*) FROM singer"})
	}
	small := Build("", slices.Values(demos), demoDB(), "List names.", 300)
	large := Build("", slices.Values(demos), demoDB(), "List names.", 2000)
	if small.DemosUsed >= large.DemosUsed {
		t.Errorf("budget has no effect: small=%d large=%d", small.DemosUsed, large.DemosUsed)
	}
	if small.InputTokens > 300 {
		t.Errorf("prompt exceeds budget: %d > 300", small.InputTokens)
	}
	if large.DemosUsed == 0 {
		t.Error("no demos fit a 2000-token budget")
	}
}

// TestBuildStopsPullingAtFirstMisfit: Build pulls demonstrations one at a
// time and stops at the first that does not fit, so a lazy producer does
// no work past the budget; without a budget it drains the sequence.
func TestBuildStopsPullingAtFirstMisfit(t *testing.T) {
	pulled := 0
	demos := func(yield func(Demo) bool) {
		for i := 0; i < 1000; i++ {
			pulled++
			if !yield(Demo{DB: demoDB(), NL: "How many singers are there?", SQL: "SELECT COUNT(*) FROM singer"}) {
				return
			}
		}
	}
	r := Build("", demos, demoDB(), "List names.", 500)
	if r.DemosUsed == 0 || pulled != r.DemosUsed+1 {
		t.Errorf("budgeted build pulled %d demonstrations for %d used, want used + 1", pulled, r.DemosUsed)
	}
	pulled = 0
	if r := Build("", demos, demoDB(), "List names.", 0); pulled != 1000 || r.DemosUsed != 1000 {
		t.Errorf("unbudgeted build pulled %d and used %d of 1000", pulled, r.DemosUsed)
	}
}

func TestTaskAlwaysFits(t *testing.T) {
	r := Build("", nil, demoDB(), "List names.", 10) // budget below task size
	if !strings.Contains(r.Text, TaskHeader) || !strings.Contains(r.Text, "Q: List names.") {
		t.Error("task section must always be present")
	}
}

func TestParseDemoSQLs(t *testing.T) {
	demos := []Demo{
		{DB: demoDB(), NL: "q1", SQL: "SELECT a FROM t"},
		{DB: demoDB(), NL: "q2", SQL: "SELECT b FROM u"},
	}
	r := Build("", slices.Values(demos), demoDB(), "task question", 0)
	got := ParseDemoSQLs(r.Text)
	if len(got) != 2 || got[0] != "SELECT a FROM t" || got[1] != "SELECT b FROM u" {
		t.Errorf("ParseDemoSQLs = %v", got)
	}
}

func TestParseDemoSQLsIgnoresTaskSQLPrefix(t *testing.T) {
	r := Build("", nil, demoDB(), "q", 0)
	if got := ParseDemoSQLs(r.Text); len(got) != 0 {
		t.Errorf("task trailing SQL: must not parse as demo: %v", got)
	}
}

func TestTaskSchemaSize(t *testing.T) {
	r := Build("", slices.Values([]Demo{{DB: demoDB(), NL: "q", SQL: "SELECT 1 FROM x"}}), demoDB(), "task", 0)
	tables, cols := TaskSchemaSize(r.Text)
	if tables != 1 || cols != 2 {
		t.Errorf("TaskSchemaSize = %d tables, %d cols; want 1, 2", tables, cols)
	}
}
