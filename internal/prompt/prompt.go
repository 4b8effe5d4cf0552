// Package prompt assembles LLM prompts under a token budget (Section III-A,
// Figure 2). A prompt is a sequence of demonstrations (pruned schema, NL,
// SQL) followed by the current task's pruned schema and NL query. Token
// accounting uses the standard ~4-characters-per-token approximation so the
// Figure 11 budget grid (len × num) is reproducible.
package prompt

import (
	"iter"
	"strings"

	"repro/internal/schema"
)

// Tokens estimates the LLM token count of a string.
func Tokens(s string) int { return (len(s) + 3) / 4 }

// Demo is one formatted demonstration.
type Demo struct {
	DB  *schema.Database // already pruned to the demo's relevant items
	NL  string
	SQL string
}

// Markers used by the prompt format; the simulated LLM parses them back out
// of the raw prompt text, keeping the text interface honest.
const (
	DemoHeader   = "### Example"
	TaskHeader   = "### Task"
	SchemaPrefix = "Schema:"
	QueryPrefix  = "Q:"
	SQLPrefix    = "SQL:"
)

// Result is the assembled prompt plus accounting.
type Result struct {
	Text        string
	DemosUsed   int
	InputTokens int
}

// Build renders instructions, as many demonstrations as fit, and the task
// section, within maxTokens. The task section always fits (it is reserved
// first); demonstrations are pulled from demos in preference order and
// added until the first one that does not fit, after which Build pulls no
// more. A nil demos builds a zero-shot prompt. maxTokens <= 0 means
// unlimited.
func Build(instructions string, demos iter.Seq[Demo], taskDB *schema.Database, nl string, maxTokens int) Result {
	var task strings.Builder
	task.WriteString(TaskHeader)
	task.WriteByte('\n')
	writeSchema(&task, taskDB)
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
		demos = func(func(Demo) bool) {}
	}
	for d := range demos {
		var ds strings.Builder
		ds.WriteString(DemoHeader)
		ds.WriteByte('\n')
		writeSchema(&ds, d.DB)
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

// writeSchema renders a compact schema block with representative values for
// text columns (the BRIDGE-style value hints the paper adopts).
func writeSchema(sb *strings.Builder, db *schema.Database) {
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

// ParseDemoSQLs extracts the demonstration SQL strings from a rendered
// prompt. The simulated LLM uses this: what it can learn from is exactly
// what the prompt contains.
func ParseDemoSQLs(text string) []string {
	var out []string
	inTask := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, TaskHeader) {
			inTask = true
			continue
		}
		if !inTask && strings.HasPrefix(line, SQLPrefix+" ") {
			out = append(out, strings.TrimSpace(strings.TrimPrefix(line, SQLPrefix)))
		}
	}
	return out
}

// TaskSchemaSize counts the tables and columns in the task section of a
// prompt; the simulated LLM's schema-linking difficulty scales with it.
func TaskSchemaSize(text string) (tables, columns int) {
	idx := strings.Index(text, TaskHeader)
	if idx < 0 {
		return 0, 0
	}
	for _, line := range strings.Split(text[idx:], "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, QueryPrefix) {
			break
		}
		if open := strings.IndexByte(line, '('); open > 0 && strings.HasSuffix(line, ")") {
			tables++
			columns += strings.Count(line[open:], ",") + 1
		}
	}
	return tables, columns
}
