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
func Tokens(s string) int { return tokensOf(len(s)) }

// tokensOf is the ~4-characters-per-token estimate for n bytes of text.
func tokensOf(n int) int { return (n + 3) / 4 }

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

// Text is a prompt as the blocks it is made of, in order: the
// instructions line (when there are instructions), each demonstration
// block exactly as NewDemo rendered it, and the task section. Every block
// but the last ends in '\n', so a line of the prompt never spans two
// blocks. The prompt text is the blocks' concatenation; nothing on the
// serving path joins them.
type Text []string

// Tokens estimates the LLM token count of the prompt text, as Tokens does
// of the joined text.
func (t Text) Tokens() int {
	n := 0
	for _, b := range t {
		n += len(b)
	}
	return tokensOf(n)
}

// Result is the assembled prompt plus accounting.
type Result struct {
	Text        Text
	DemosUsed   int
	InputTokens int
}

// Build renders instructions, as many demonstrations as fit, and the task
// section, within maxTokens. The task section always fits (it is reserved
// first); demonstrations are pulled from demos in preference order and
// added until the first one that does not fit, after which Build pulls no
// more. A nil demos builds a zero-shot prompt. maxTokens <= 0 means
// unlimited. Demonstrations come rendered: the prompt holds their blocks
// without copying them, so Build allocates the task section and the
// block list whatever the number of demonstrations.
func Build(instructions string, demos iter.Seq[Demo], taskDB *schema.Database, nl string, maxTokens int) Result {
	var sb strings.Builder
	sb.WriteString(TaskHeader)
	sb.WriteByte('\n')
	writeSchema(&sb, taskDB)
	sb.WriteString(QueryPrefix + " " + nl + "\n")
	sb.WriteString(SQLPrefix)
	task := sb.String()

	var head string
	if instructions != "" {
		head = instructions + "\n"
	}
	budget := maxTokens - Tokens(task) - Tokens(head)

	// A prompt at the default 3,072-token budget holds ~58 demonstrations,
	// so room for 64, the instructions line and the task section allocates
	// its block list once.
	text := make(Text, 0, 64+2)
	if head != "" {
		text = append(text, head)
	}
	start := len(text)
	if demos == nil {
		demos = func(func(Demo) bool) {}
	}
	for d := range demos {
		if maxTokens > 0 && d.Tokens > budget {
			break
		}
		text = append(text, d.Text)
		budget -= d.Tokens
	}
	used := len(text) - start
	text = append(text, task)
	return Result{Text: text, DemosUsed: used, InputTokens: text.Tokens()}
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

// DemoSQLs yields the demonstration SQL strings of a prompt, in order:
// the text after "SQL: " on each line before the task section, trimmed of
// surrounding space. The simulated LLM uses this: what it can learn from is
// exactly what the prompt contains. Ranging over it allocates nothing; the
// strings it yields are substrings of the prompt's blocks.
func DemoSQLs(t Text) iter.Seq[string] {
	return func(yield func(string) bool) { demoSQLs(t, yield) }
}

// demoSQLs is DemoSQLs's loop, kept out of the closure DemoSQLs returns so
// that DemoSQLs inlines into its caller and the closure stays on its stack.
func demoSQLs(t Text, yield func(string) bool) {
	for _, block := range t {
		for len(block) > 0 {
			var line string
			line, block, _ = strings.Cut(block, "\n")
			if strings.HasPrefix(line, TaskHeader) {
				return
			}
			if strings.HasPrefix(line, SQLPrefix+" ") && !yield(strings.TrimSpace(line[len(SQLPrefix):])) {
				return
			}
		}
	}
}

// TaskSchemaSize counts the tables and columns in the task section of a
// prompt, which starts at the first "### Task" in the text; the simulated
// LLM's schema-linking difficulty scales with it.
func TaskSchemaSize(t Text) (tables, columns int) {
	inTask := false
	for _, block := range t {
		if !inTask {
			i := strings.Index(block, TaskHeader)
			if i < 0 {
				continue
			}
			inTask, block = true, block[i:]
		}
		for len(block) > 0 {
			var line string
			line, block, _ = strings.Cut(block, "\n")
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, QueryPrefix) {
				return tables, columns
			}
			if open := strings.IndexByte(line, '('); open > 0 && strings.HasSuffix(line, ")") {
				tables++
				columns += strings.Count(line[open:], ",") + 1
			}
		}
	}
	return tables, columns
}
