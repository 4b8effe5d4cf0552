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

// Demo is one demonstration rendered as its prompt block: the header, the
// pruned schema, the question and its SQL. Its text never changes, so a
// pipeline renders each demonstration once and every prompt copies it.
type Demo struct {
	Text   string
	Tokens int // Tokens(Text)
}

// NewDemo renders a demonstration of nl and sql over db, a schema already
// pruned to the items sql uses.
func NewDemo(db *schema.Database, nl, sql string) Demo {
	var sb strings.Builder
	sb.WriteString(DemoHeader)
	sb.WriteByte('\n')
	writeSchema(&sb, db)
	sb.WriteString(QueryPrefix + " " + nl + "\n")
	sb.WriteString(SQLPrefix + " " + sql + "\n\n")
	text := sb.String()
	return Demo{Text: text, Tokens: Tokens(text)}
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
// unlimited. Demonstrations come rendered: Build collects the blocks that
// fit and copies each once, into a text grown to its final length.
func Build(instructions string, demos iter.Seq[Demo], taskDB *schema.Database, nl string, maxTokens int) Result {
	var task strings.Builder
	task.WriteString(TaskHeader)
	task.WriteByte('\n')
	writeSchema(&task, taskDB)
	task.WriteString(QueryPrefix + " " + nl + "\n")
	task.WriteString(SQLPrefix)

	var head string
	if instructions != "" {
		head = instructions + "\n"
	}
	budget := maxTokens - Tokens(task.String()) - Tokens(head)
	size := len(head) + task.Len()

	// A prompt at the default 3,072-token budget holds ~58 demonstrations,
	// so collecting them allocates this one array.
	var first [64]Demo
	kept := first[:0]
	if demos == nil {
		demos = func(func(Demo) bool) {}
	}
	for d := range demos {
		if maxTokens > 0 && d.Tokens > budget {
			break
		}
		kept = append(kept, d)
		budget -= d.Tokens
		size += len(d.Text)
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteString(head)
	for _, d := range kept {
		sb.WriteString(d.Text)
	}
	sb.WriteString(task.String())
	text := sb.String()
	return Result{Text: text, DemosUsed: len(kept), InputTokens: Tokens(text)}
}

// writeSchema renders a compact schema block: one line per table with its
// column names, then one line per foreign key.
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
	for line := range strings.SplitSeq(text, "\n") {
		if strings.HasPrefix(line, TaskHeader) {
			break
		}
		if strings.HasPrefix(line, SQLPrefix+" ") {
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
	for line := range strings.SplitSeq(text[idx:], "\n") {
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
