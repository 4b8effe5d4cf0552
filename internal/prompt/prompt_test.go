package prompt

import (
	"iter"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
	r := build("-- inst", slices.Values(demos), demoDB(), "List names.", 0)
	text := strings.Join(r.Text, "")
	for _, want := range []string{"-- inst", DemoHeader, TaskHeader, "singer(id, name)", "Q: List names.", "SQL: SELECT COUNT(*) FROM singer", "FK singer.id -> band.id"} {
		if !strings.Contains(text, want) {
			t.Errorf("prompt missing %q:\n%s", want, text)
		}
	}
	if r.DemosUsed != 1 {
		t.Errorf("DemosUsed = %d", r.DemosUsed)
	}
	if r.InputTokens != Tokens(text) || r.Text.Tokens() != Tokens(text) {
		t.Error("token accounting mismatch")
	}
}

func TestBudgetLimitsDemos(t *testing.T) {
	var demos []Demo
	for i := 0; i < 50; i++ {
		demos = append(demos, NewDemo(demoDB(), "How many singers are there in total?", "SELECT COUNT(*) FROM singer"))
	}
	small := build("", slices.Values(demos), demoDB(), "List names.", 300)
	large := build("", slices.Values(demos), demoDB(), "List names.", 2000)
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

// TestBuildStopsPullingAtFirstMisfit: Add reports the first demonstration
// that does not fit, so a caller pulling lazily does no work past the
// budget, and takes none after it, even one that would fit; without a
// budget the caller drains its sequence.
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
	r := build("", demos, demoDB(), "List names.", 500)
	if r.DemosUsed == 0 || pulled != r.DemosUsed+1 {
		t.Errorf("budgeted build pulled %d demonstrations for %d used, want used + 1", pulled, r.DemosUsed)
	}
	pulled = 0
	if r := build("", demos, demoDB(), "List names.", 0); pulled != 1000 || r.DemosUsed != 1000 {
		t.Errorf("unbudgeted build pulled %d and used %d of 1000", pulled, r.DemosUsed)
	}

	b := NewBuilder("", demoDB(), "List names.", 100)
	big := NewDemo(demoDB(), strings.Repeat("How many singers are there? ", 20), "SELECT COUNT(*) FROM singer")
	small := Demo{Text: "x\n", Tokens: 1}
	if !b.Add(small) || b.Add(big) || b.Add(small) {
		t.Error("Add took a demonstration after the first that did not fit")
	}
	if r := b.Result(); r.DemosUsed != 1 || len(r.Text) != 2 {
		t.Errorf("prompt of %d blocks with %d demonstrations, want the small one and the task", len(r.Text), r.DemosUsed)
	}
}

// build assembles a prompt the way the pipeline does: it adds demos in
// order until one does not fit. A nil demos builds a zero-shot prompt.
func build(instructions string, demos iter.Seq[Demo], db *schema.Database, nl string, maxTokens int) Result {
	b := NewBuilder(instructions, db, nl, maxTokens)
	if demos != nil {
		for d := range demos {
			if !b.Add(d) {
				break
			}
		}
	}
	return b.Result()
}

func TestTaskAlwaysFits(t *testing.T) {
	r := build("", nil, demoDB(), "List names.", 10) // budget below task size
	if text := strings.Join(r.Text, ""); !strings.Contains(text, TaskHeader) || !strings.Contains(text, "Q: List names.") {
		t.Error("task section must always be present")
	}
}

func TestParseDemoSQLs(t *testing.T) {
	demos := []Demo{
		NewDemo(demoDB(), "q1", "SELECT a FROM t"),
		NewDemo(demoDB(), "q2", "SELECT b FROM u"),
	}
	r := build("", slices.Values(demos), demoDB(), "task question", 0)
	got := slices.Collect(DemoSQLs(r.Text))
	if len(got) != 2 || got[0] != "SELECT a FROM t" || got[1] != "SELECT b FROM u" {
		t.Errorf("DemoSQLs = %v", got)
	}
}

func TestParseDemoSQLsIgnoresTaskSQLPrefix(t *testing.T) {
	r := build("", nil, demoDB(), "q", 0)
	if got := slices.Collect(DemoSQLs(r.Text)); len(got) != 0 {
		t.Errorf("task trailing SQL: must not parse as demo: %v", got)
	}
}

func TestTaskSchemaSize(t *testing.T) {
	r := build("", slices.Values([]Demo{NewDemo(demoDB(), "q", "SELECT 1 FROM x")}), demoDB(), "task", 0)
	tables, cols := TaskSchemaSize(r.Text)
	if tables != 1 || cols != 2 {
		t.Errorf("TaskSchemaSize = %d tables, %d cols; want 1, 2", tables, cols)
	}
}

// TestBuildAllocsDoNotGrowWithDemos: a prompt keeps the blocks that fit in
// one block list, without copying them, so it allocates that list and its
// task section, and an instructions line when there is one, however many
// demonstrations it holds; a demonstration renders into one buffer sized
// in advance.
func TestBuildAllocsDoNotGrowWithDemos(t *testing.T) {
	db := demoDB()
	demos := make([]Demo, 97)
	for i := range demos {
		demos[i] = NewDemo(db, "How many singers are there?", "SELECT COUNT(*) FROM singer")
	}
	for _, c := range []struct {
		instructions string
		want         float64
	}{{"", 2}, {"-- inst", 3}} {
		for _, n := range []int{0, 1, len(demos)} {
			allocs := testing.AllocsPerRun(100, func() {
				b := NewBuilder(c.instructions, db, "List names.", 0)
				for _, d := range demos[:n] {
					b.Add(d)
				}
				if b.Result().DemosUsed != n {
					t.Fatal("short prompt")
				}
			})
			if allocs != c.want {
				t.Errorf("instructions %q: a prompt of %d demonstrations allocates %v times, want %v", c.instructions, n, allocs, c.want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { NewDemo(db, "How many singers are there?", "SELECT COUNT(*) FROM singer") }); allocs != 1 {
		t.Errorf("NewDemo allocates %v times, want 1: its block", allocs)
	}
}

// TestBuildMatchesPerCallRenderer holds the prompt a Builder assembles to
// refBuild, the renderer it replaced, over the training demonstrations of
// the scale-0.08 corpus (pruned as the pipeline prunes them) and its dev
// tasks: the joined text, the demonstrations used and the token count must
// be identical at every budget, with and without instructions, and
// zero-shot. Each demonstration
// block of the prompt must be the rendered block itself, not a copy, and
// every block but the last must end in a newline.
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
				got := build(instructions, slices.Values(demos[from:]), e.DB, e.NL, maxTokens)
				if joined := strings.Join(got.Text, ""); joined != want.Text || got.DemosUsed != want.DemosUsed || got.InputTokens != want.InputTokens {
					t.Fatalf("instructions %q, budget %d, task %d: prompt of %d demos, %d tokens; reference %d demos, %d tokens; texts equal: %v",
						instructions, maxTokens, e.ID, got.DemosUsed, got.InputTokens, want.DemosUsed, want.InputTokens, joined == want.Text)
				}
				checkBlocks(t, got, instructions, demos[from:])
				got = build(instructions, nil, e.DB, e.NL, maxTokens)
				want = refBuild(instructions, nil, e.DB, e.NL, maxTokens)
				if strings.Join(got.Text, "") != want.Text || got.DemosUsed != want.DemosUsed || got.InputTokens != want.InputTokens {
					t.Fatalf("instructions %q, budget %d, task %d: zero-shot prompt differs from the reference", instructions, maxTokens, e.ID)
				}
				checkBlocks(t, got, instructions, nil)
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

// checkBlocks checks r's block list: the instructions line when there are
// instructions, then the first r.DemosUsed of demos, each the rendered
// block itself (same bytes in memory), then the task section; every block
// but the last ends in a newline.
func checkBlocks(t *testing.T, r Result, instructions string, demos []Demo) {
	t.Helper()
	blocks := r.Text
	if instructions != "" {
		if blocks[0] != instructions+"\n" {
			t.Fatalf("first block %q, want the instructions line", blocks[0])
		}
		blocks = blocks[1:]
	}
	if len(blocks) != r.DemosUsed+1 || !strings.HasPrefix(blocks[len(blocks)-1], TaskHeader) {
		t.Fatalf("%d blocks after the instructions for %d demonstrations, or the last is not the task section", len(blocks), r.DemosUsed)
	}
	for i, b := range blocks[:r.DemosUsed] {
		if unsafe.StringData(b) != unsafe.StringData(demos[i].Text) || len(b) != len(demos[i].Text) {
			t.Fatalf("demonstration block %d is not the rendered block", i)
		}
	}
	for i, b := range r.Text[:len(r.Text)-1] {
		if !strings.HasSuffix(b, "\n") {
			t.Fatalf("block %d of %d does not end in a newline: %q", i, len(r.Text), b)
		}
	}
}

// refResult, refDemo and refBuild are the per-call renderer: it
// rendered each demonstration it pulled, schema included, on every call,
// into one string.
type refResult struct {
	Text        string
	DemosUsed   int
	InputTokens int
}

type refDemo struct {
	DB  *schema.Database
	NL  string
	SQL string
}

func refBuild(instructions string, demos iter.Seq[refDemo], taskDB *schema.Database, nl string, maxTokens int) refResult {
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
	return refResult{Text: text, DemosUsed: used, InputTokens: Tokens(text)}
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
