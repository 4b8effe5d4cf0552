package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/selection"
	"repro/internal/spider"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenTranslations pins every answer the pipeline gives on a small
// corpus: per configuration, the SHA-256 of each dev task's SQL, input
// tokens, output tokens and demonstrations used, in task order, and the
// SHA-256 of the LLM response behind each answer, all its sampled
// completions in order with both token counts, so a change to a sample
// the vote discards shows up too. The default configuration is the tier-1
// copy of the repository benchmark's reference check (bench/reference.go),
// which runs the same pipeline at scale 1.0; the other two pin the
// selection ablation and the Figure 12 noise knobs. Any change to pruning, prediction, selection, prompt
// assembly, the simulated LLM or adaption that alters one answer shows up
// here. Regenerate deliberately with:
//
//	go test ./internal/core -run TestGoldenTranslations -update
func TestGoldenTranslations(t *testing.T) {
	corpus := spider.GenerateSmall(1, 0.1)
	noSelection := DefaultConfig()
	noSelection.UseSelection = false
	noisy := DefaultConfig()
	noisy.Policy = selection.Exp(1, 2)
	noisy.MaskLevels = 1
	noisy.DropProb = 0.5
	var sb strings.Builder
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"no-selection", noSelection}, {"noisy", noisy}} {
		rec := &recordingClient{Client: llm.NewSim(llm.ChatGPT)}
		p := New(corpus.Train.Examples, rec, c.cfg)
		h, samples := sha256.New(), sha256.New()
		for _, e := range corpus.Dev.Examples {
			tr := p.Translate(e)
			fmt.Fprintf(h, "%d\t%q\t%d\t%d\t%d\n", e.ID, tr.SQL, tr.InputTokens, tr.OutputTokens, tr.DemosUsed)
			fmt.Fprintf(samples, "%d\t%q\t%d\t%d\n", e.ID, rec.last, tr.InputTokens, tr.OutputTokens)
		}
		fmt.Fprintf(&sb, "%s tasks=%d sha256=%s\n", c.name, len(corpus.Dev.Examples), hex.EncodeToString(h.Sum(nil)))
		fmt.Fprintf(&sb, "%s completions requests=%d sha256=%s\n", c.name, len(corpus.Dev.Examples), hex.EncodeToString(samples.Sum(nil)))
	}
	got := sb.String()

	path := filepath.Join("testdata", "translations.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create it): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("translations drifted (rerun with -update only if the change is intentional):\ngolden:\n%sgot:\n%s", want, got)
	}
}
