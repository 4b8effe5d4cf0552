package llm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/spider"
)

// recorder is an LLM client that keeps each request it is sent.
type recorder struct{ reqs []llm.Request }

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Complete(req llm.Request) llm.Response {
	r.reqs = append(r.reqs, req)
	return llm.Response{SQLs: []string{"SELECT 1"}}
}

// TestReadMatchesReferenceOnDevPrompts holds the simulated LLM's reading of
// every paper-scale dev prompt, guidance level, match count and task
// schema size, to the whole-prompt reference, with a cold memo, a warm one
// and after a clear.
func TestReadMatchesReferenceOnDevPrompts(t *testing.T) {
	c := spider.GenerateSmall(1, 1.0)
	rec := &recorder{}
	p := core.New(c.Train.Examples, rec, core.DefaultConfig())
	for _, e := range c.Dev.Examples {
		p.Translate(e)
	}
	if len(rec.reqs) != len(c.Dev.Examples) {
		t.Fatalf("%d requests for %d dev tasks", len(rec.reqs), len(c.Dev.Examples))
	}
	s := llm.NewSim(llm.ChatGPT)
	for _, pass := range []string{"cold", "warm", "cleared"} {
		if pass == "cleared" {
			llm.ClearMemos(s)
		}
		for _, req := range rec.reqs {
			llm.CheckReadMatchesReference(t, s, req)
		}
	}
}
