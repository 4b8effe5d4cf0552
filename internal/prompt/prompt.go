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
	sb.Grow(len(DemoHeader) + 1 + schemaLen(db) + len(QueryPrefix) + 1 + len(nl) + 1 + len(SQLPrefix) + 1 + len(sql) + 2)
	sb.WriteString(DemoHeader)
	sb.WriteByte('\n')
	writeSchema(&sb, db)
	writeLine(&sb, QueryPrefix, nl)
	writeLine(&sb, SQLPrefix, sql)
	sb.WriteByte('\n')
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

// Builder assembles one prompt within a token budget: the instructions
// line, as many demonstrations as fit, and the task section. The task
// section always fits (it is reserved first); demonstrations are added in
// preference order until the first one that does not fit, after which Add
// takes no more. maxTokens <= 0 means unlimited. Demonstrations come
// rendered: the prompt holds their blocks without copying them, so a
// prompt allocates its block list and its task section (and an
// instructions line, when there is one) whatever the number of
// demonstrations, and the caller pulls demonstrations with a plain loop.
type Builder struct {
	text      Text
	task      string
	start     int // index of the first demonstration block
	budget    int // tokens left for demonstrations
	unlimited bool
	full      bool // a demonstration did not fit
}

// blockCap is the block list's capacity: at the default 3,072-token budget
// a paper-scale dev prompt holds 27 to 96 demonstrations (60 in the
// median), so the list of a prompt rarely grows.
const blockCap = 112

// NewBuilder starts a prompt of instructions (none when empty) and the
// task section for nl over taskDB, within maxTokens.
func NewBuilder(instructions string, taskDB *schema.Database, nl string, maxTokens int) Builder {
	b := Builder{task: taskSection(taskDB, nl), text: make(Text, 0, blockCap), unlimited: maxTokens <= 0}
	if instructions != "" {
		b.text = append(b.text, instructions+"\n")
	}
	b.start = len(b.text)
	b.budget = maxTokens - Tokens(b.task)
	if b.start > 0 {
		b.budget -= Tokens(b.text[0])
	}
	return b
}

// Add appends d's block if it fits in what is left of the budget and
// reports whether it did. Once a demonstration does not fit, Add appends
// none: the caller stops pulling.
func (b *Builder) Add(d Demo) bool {
	if b.full || !b.unlimited && d.Tokens > b.budget {
		b.full = true
		return false
	}
	b.text = append(b.text, d.Text)
	b.budget -= d.Tokens
	return true
}

// Result returns the prompt: the blocks added so far and the task
// section. It ends the prompt: add nothing after it.
func (b *Builder) Result() Result {
	text := append(b.text, b.task)
	return Result{Text: text, DemosUsed: len(b.text) - b.start, InputTokens: text.Tokens()}
}

// taskSection renders the task's header, pruned schema and question,
// ending in the "SQL:" the completion continues, into one allocation.
func taskSection(db *schema.Database, nl string) string {
	n := len(TaskHeader) + 1 + schemaLen(db) + len(QueryPrefix) + 1 + len(nl) + 1 + len(SQLPrefix)
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString(TaskHeader)
	sb.WriteByte('\n')
	writeSchema(&sb, db)
	writeLine(&sb, QueryPrefix, nl)
	sb.WriteString(SQLPrefix)
	return sb.String()
}

// writeLine writes prefix, a space, text and a newline.
func writeLine(sb *strings.Builder, prefix, text string) {
	sb.WriteString(prefix)
	sb.WriteByte(' ')
	sb.WriteString(text)
	sb.WriteByte('\n')
}

// writeSchema renders a compact schema block: one line per table with its
// column names, then one line per foreign key. It writes schemaLen(db)
// bytes.
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
		for _, s := range [...]string{"  FK ", fk.FromTable, ".", fk.FromColumn, " -> ", fk.ToTable, ".", fk.ToColumn, "\n"} {
			sb.WriteString(s)
		}
	}
}

// schemaLen is the length of db's schema block.
func schemaLen(db *schema.Database) int {
	if db == nil {
		return 0
	}
	n := len(SchemaPrefix) + 1
	for _, t := range db.Tables {
		n += 2 + len(t.Name) + 1 + 2
		for i, c := range t.Columns {
			if i > 0 {
				n += 2
			}
			n += len(c.Name)
		}
	}
	for _, fk := range db.ForeignKeys {
		n += len("  FK ") + len(fk.FromTable) + 1 + len(fk.FromColumn) + len(" -> ") + len(fk.ToTable) + 1 + len(fk.ToColumn) + 1
	}
	return n
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
