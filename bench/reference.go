package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/spider"
)

// The server's corpus: seed 1 at scale 1.0 gives the Table 3 sizes (8,659
// training demonstrations, 1,034 dev tasks). Workload seeds never change
// it, so accuracy is comparable across runs.
const (
	corpusSeed  = 1
	corpusScale = 1.0
)

// answer is the expected outcome of one dev task.
type answer struct {
	SQL    string
	EM, EX bool
	Tokens int
	Demos  int
}

// reference is the in-process oracle: the pipeline the server builds
// (core.New over the same corpus with DefaultConfig and the simulated
// ChatGPT), run over every dev task. Served answers must equal it.
type reference struct {
	answers []answer // indexed by task_id, the dev example's position
	// Dev-set accuracy and mean prompt-plus-completion tokens.
	ex, em, tokens float64
}

// loadReference returns the reference answers. The pass is deterministic
// given the code, so its answers are saved in cacheDir under the hash of
// this binary, which contains every package the pass runs, and later runs
// of the same build reuse them.
func loadReference(ctx context.Context, cacheDir string) (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(cacheDir, "reference-"+hex.EncodeToString(sum[:8])+".json")
	if data, err := os.ReadFile(path); err == nil {
		var answers []answer
		if err := json.Unmarshal(data, &answers); err == nil {
			return newReference(answers), nil
		}
	}
	corpus := spider.GenerateSmall(corpusSeed, corpusScale)
	pipe := core.New(corpus.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	dev := corpus.Dev.Examples
	out, _, err := core.NewEngine(pipe, runtime.NumCPU()).TranslateBatch(ctx, dev)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %v", err)
	}
	answers := make([]answer, len(dev))
	for i, e := range dev {
		answers[i] = answer{
			SQL:    out[i].SQL,
			EM:     eval.ExactSetMatchSQL(out[i].SQL, e.GoldSQL),
			EX:     eval.ExecutionMatch(e.DB, out[i].SQL, e.GoldSQL),
			Tokens: out[i].InputTokens + out[i].OutputTokens,
			Demos:  out[i].DemosUsed,
		}
	}
	data, err := json.Marshal(answers)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return newReference(answers), nil
}

func newReference(answers []answer) *reference {
	ref := &reference{answers: answers}
	ref.ex, ref.em, ref.tokens = accuracy(answers)
	return ref
}

// accuracy is the EX and EM share and the mean token count of answers.
func accuracy(answers []answer) (ex, em, tokens float64) {
	for _, a := range answers {
		ex += float64(b2i(a.EX))
		em += float64(b2i(a.EM))
		tokens += float64(a.Tokens)
	}
	n := float64(len(answers))
	return ex / n, em / n, tokens / n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
