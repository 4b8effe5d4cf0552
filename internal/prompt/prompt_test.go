package prompt

import (
	"iter"
	"slices"
	"strings"
	"testing"

	"repro/internal/classifier"
	"repro/internal/schema"
	"repro/internal/spider"
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
	demos := []Demo{NewDemo(demoDB(), "How many singers?", "SELECT COUNT(*) FROM singer")}
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
		demos = append(demos, NewDemo(demoDB(), "How many singers are there in total?", "SELECT COUNT(*) FROM singer"))
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
	d := NewDemo(demoDB(), "How many singers are there?", "SELECT COUNT(*) FROM singer")
	demos := func(yield func(Demo) bool) {
		for i := 0; i < 1000; i++ {
			pulled++
			if !yield(d) {
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
		NewDemo(demoDB(), "q1", "SELECT a FROM t"),
		NewDemo(demoDB(), "q2", "SELECT b FROM u"),
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
	r := Build("", slices.Values([]Demo{NewDemo(demoDB(), "q", "SELECT 1 FROM x")}), demoDB(), "task", 0)
	tables, cols := TaskSchemaSize(r.Text)
	if tables != 1 || cols != 2 {
		t.Errorf("TaskSchemaSize = %d tables, %d cols; want 1, 2", tables, cols)
	}
}

// TestBuildAllocsDoNotGrowWithDemos: Build copies the blocks that fit into
// one text grown to its final length, so a prompt holding a default
// budget's worth of demonstrations costs it the allocations of a prompt
// holding one.
func TestBuildAllocsDoNotGrowWithDemos(t *testing.T) {
	db := demoDB()
	demos := make([]Demo, 58)
	for i := range demos {
		demos[i] = NewDemo(db, "How many singers are there?", "SELECT COUNT(*) FROM singer")
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			if Build("", slices.Values(demos[:n]), db, "List names.", 0).DemosUsed != n {
				t.Fatal("short prompt")
			}
		})
	}
	if one, many := allocs(1), allocs(len(demos)); many > one {
		t.Errorf("Build allocates %v times for %d demonstrations, %v for one", many, len(demos), one)
	}
}

// TestBuildMatchesPerCallRenderer holds Build to refBuild, the renderer it
// replaced, over the training demonstrations of the scale-0.08 corpus
// (pruned as the pipeline prunes them) and its dev tasks: the text, the
// demonstrations used and the token count must be identical at every
// budget, with and without instructions, and zero-shot.
func TestBuildMatchesPerCallRenderer(t *testing.T) {
	c := spider.GenerateSmall(1, 0.08)
	var refs []refDemo
	var demos []Demo
	for _, e := range c.Train.Examples {
		db := prunedSchema(e)
		refs = append(refs, refDemo{DB: db, NL: e.NL, SQL: e.GoldSQL})
		demos = append(demos, NewDemo(db, e.NL, e.GoldSQL))
	}
	for _, instructions := range []string{"", "-- Translate the question into SQLite SQL."} {
		for _, maxTokens := range []int{0, 1, 300, 3072} {
			for i, e := range c.Dev.Examples {
				from := i * 7 % len(demos) // each task pulls a different run of demonstrations
				want := refBuild(instructions, slices.Values(refs[from:]), e.DB, e.NL, maxTokens)
				got := Build(instructions, slices.Values(demos[from:]), e.DB, e.NL, maxTokens)
				if got != want {
					t.Fatalf("instructions %q, budget %d, task %d: Build = %d demos, %d tokens; reference %d demos, %d tokens; texts equal: %v",
						instructions, maxTokens, e.ID, got.DemosUsed, got.InputTokens, want.DemosUsed, want.InputTokens, got.Text == want.Text)
				}
				if got, want := Build(instructions, nil, e.DB, e.NL, maxTokens), refBuild(instructions, nil, e.DB, e.NL, maxTokens); got != want {
					t.Fatalf("instructions %q, budget %d, task %d: zero-shot prompt differs from the reference", instructions, maxTokens, e.ID)
				}
			}
		}
	}
}

// prunedSchema prunes a training example's schema to the tables and
// columns its gold SQL uses, as the pipeline does before rendering it.
func prunedSchema(e *spider.Example) *schema.Database {
	used := classifier.UsedItems(e.Gold, e.DB)
	keep := make([][]bool, len(e.DB.Tables))
	for i, t := range e.DB.Tables {
		tn := strings.ToLower(t.Name)
		if !slices.Contains(used.Tables, tn) {
			continue
		}
		keep[i] = make([]bool, len(t.Columns))
		for j, c := range t.Columns {
			keep[i][j] = slices.Contains(used.Columns, tn+"."+strings.ToLower(c.Name))
		}
	}
	return e.DB.Prune(keep)
}

// refDemo and refBuild are the renderer Build replaced: it rendered each
// demonstration it pulled, schema included, on every call.
type refDemo struct {
	DB  *schema.Database
	NL  string
	SQL string
}

func refBuild(instructions string, demos iter.Seq[refDemo], taskDB *schema.Database, nl string, maxTokens int) Result {
	var task strings.Builder
	task.WriteString(TaskHeader)
	task.WriteByte('\n')
	refWriteSchema(&task, taskDB)
	task.WriteString(QueryPrefix + " " + nl + "\n")
	task.WriteString(SQLPrefix)

	var sb strings.Builder
	if instructions != "" {
		sb.WriteString(instructions)
		sb.WriteByte('\n')
	}
	budget := maxTokens - Tokens(task.String()) - Tokens(sb.String())

	used := 0
	if demos == nil {
		demos = func(func(refDemo) bool) {}
	}
	for d := range demos {
		var ds strings.Builder
		ds.WriteString(DemoHeader)
		ds.WriteByte('\n')
		refWriteSchema(&ds, d.DB)
		ds.WriteString(QueryPrefix + " " + d.NL + "\n")
		ds.WriteString(SQLPrefix + " " + d.SQL + "\n\n")
		cost := Tokens(ds.String())
		if maxTokens > 0 && cost > budget {
			break
		}
		sb.WriteString(ds.String())
		budget -= cost
		used++
	}
	sb.WriteString(task.String())
	text := sb.String()
	return Result{Text: text, DemosUsed: used, InputTokens: Tokens(text)}
}

func refWriteSchema(sb *strings.Builder, db *schema.Database) {
	if db == nil {
		return
	}
	sb.WriteString(SchemaPrefix)
	sb.WriteByte('\n')
	for _, t := range db.Tables {
		sb.WriteString("  ")
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
	for _, fk := range db.ForeignKeys {
		sb.WriteString("  FK " + fk.FromTable + "." + fk.FromColumn + " -> " + fk.ToTable + "." + fk.ToColumn + "\n")
	}
}
