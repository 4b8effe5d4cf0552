package prompt_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/spider"
)

// refParseDemoSQLs and refTaskSchemaSize are DemoSQLs and TaskSchemaSize as
// they were, over the joined prompt text.
func refParseDemoSQLs(text string) []string {
	var out []string
	for line := range strings.SplitSeq(text, "\n") {
		if strings.HasPrefix(line, prompt.TaskHeader) {
			break
		}
		if strings.HasPrefix(line, prompt.SQLPrefix+" ") {
			out = append(out, strings.TrimSpace(strings.TrimPrefix(line, prompt.SQLPrefix)))
		}
	}
	return out
}

func refTaskSchemaSize(text string) (tables, columns int) {
	idx := strings.Index(text, prompt.TaskHeader)
	if idx < 0 {
		return 0, 0
	}
	for line := range strings.SplitSeq(text[idx:], "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, prompt.QueryPrefix) {
			break
		}
		if open := strings.IndexByte(line, '('); open > 0 && strings.HasSuffix(line, ")") {
			tables++
			columns += strings.Count(line[open:], ",") + 1
		}
	}
	return tables, columns
}

// checkAgainstReference requires DemoSQLs, TaskSchemaSize and Tokens over
// text's blocks to equal the references over the joined text.
func checkAgainstReference(t *testing.T, text prompt.Text) {
	t.Helper()
	joined := strings.Join(text, "")
	if got, want := slices.Collect(prompt.DemoSQLs(text)), refParseDemoSQLs(joined); !slices.Equal(got, want) {
		t.Fatalf("DemoSQLs = %q, reference %q, over %q", got, want, text)
	}
	gt, gc := prompt.TaskSchemaSize(text)
	if wt, wc := refTaskSchemaSize(joined); gt != wt || gc != wc {
		t.Fatalf("TaskSchemaSize = %d tables, %d columns; reference %d, %d; over %q", gt, gc, wt, wc, text)
	}
	if got, want := text.Tokens(), prompt.Tokens(joined); got != want {
		t.Fatalf("Tokens = %d, reference %d, over %q", got, want, text)
	}
}

// recorder is an LLM client that keeps each prompt it is sent.
type recorder struct{ prompts []prompt.Text }

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Complete(req llm.Request) llm.Response {
	r.prompts = append(r.prompts, req.Prompt)
	return llm.Response{SQLs: []string{"SELECT 1"}}
}

// devPrompts returns the prompt the paper-scale pipeline builds for each
// dev task.
func devPrompts(tb testing.TB) []prompt.Text {
	tb.Helper()
	c := spider.GenerateSmall(1, 1.0)
	rec := &recorder{}
	p := core.New(c.Train.Examples, rec, core.DefaultConfig())
	for _, e := range c.Dev.Examples {
		p.Translate(e)
	}
	if len(rec.prompts) != len(c.Dev.Examples) {
		tb.Fatalf("%d prompts for %d dev tasks", len(rec.prompts), len(c.Dev.Examples))
	}
	return rec.prompts
}

// TestBlocksMatchReferenceOnDevPrompts holds DemoSQLs, TaskSchemaSize and
// Tokens to the references over every paper-scale dev prompt, and pins a
// range over DemoSQLs at zero allocations.
func TestBlocksMatchReferenceOnDevPrompts(t *testing.T) {
	prompts := devPrompts(t)
	for _, text := range prompts {
		checkAgainstReference(t, text)
	}
	demos := 0
	allocs := testing.AllocsPerRun(3, func() {
		demos = 0
		for _, text := range prompts {
			for range prompt.DemoSQLs(text) {
				demos++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("ranging over DemoSQLs of %d prompts allocates %v times", len(prompts), allocs)
	}
	if demos == 0 {
		t.Fatal("no demonstration in any dev prompt")
	}
}

// FuzzBlocksMatchReference cuts a text into random newline-terminated
// blocks (a set bit i of cuts ends a block after line i, modulo 64) and
// holds the block versions to the references over the text.
func FuzzBlocksMatchReference(f *testing.F) {
	f.Add("### Example\nSchema:\n  t(a, b)\nQ: q\nSQL: SELECT a FROM t\n\n### Task\nSchema:\n  t(a, b)\n  u(c)\nQ: task\nSQL:", uint64(0b101101))
	f.Add("-- inst\nSQL:  SELECT 1 \r\nx ### Task y\n  v(a,b)\nSQL: SELECT 2\n### Task\n  w()\n Q: z\n  t(a)\n", uint64(1<<63|7))
	f.Add("SQL:x\n(a)\n### Taskt(a, b)\n\n\n", ^uint64(0))
	f.Add("### Task\n  t(a)\nQ: q\nSQL: after the task\n  u(b)\n", uint64(2))
	f.Fuzz(func(t *testing.T, text string, cuts uint64) {
		var blocks prompt.Text
		start := 0
		for i, line := 0, 0; i < len(text); i++ {
			if text[i] != '\n' {
				continue
			}
			if cuts>>(line%64)&1 == 1 {
				blocks = append(blocks, text[start:i+1])
				start = i + 1
			}
			line++
		}
		if start < len(text) {
			blocks = append(blocks, text[start:])
		}
		checkAgainstReference(t, blocks)
	})
}
