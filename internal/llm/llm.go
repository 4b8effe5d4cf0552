// Package llm defines the LLM client interface and the simulated
// ChatGPT/GPT-4 used throughout this reproduction.
//
// Simulation contract. The paper's thesis is causal: LLMs understand user
// intent but lack logical-operator-composition knowledge, and supplying a
// demonstration containing the requisite composition fixes the output, while
// hallucinations corrupt it independently. SimLLM reproduces exactly that
// causal structure as a behavioural model calibrated against the hidden gold
// query: the *pipelines under comparison never see the gold* — they differ
// only in what prompt they build — and the SimLLM grades that prompt by
// parsing the demonstrations actually present in the prompt text and
// checking whether any of them carries the gold's operator composition at
// some abstraction level. Intent errors scale with the prompt's schema size
// and the benchmark variant's lexical noise; hallucinations are injected at
// tier-dependent rates. See DESIGN.md ("Substitutions") for why this
// preserves the paper's comparisons.
package llm

import (
	"context"

	"repro/internal/prompt"
	"repro/internal/spider"
)

// Request is one LLM call.
type Request struct {
	// Prompt is the full prompt (instructions + demonstrations + task), as
	// the blocks a prompt.Builder assembled; the prompt text is their
	// concatenation.
	Prompt prompt.Text
	// N is the number of sampled completions (the consistency number).
	N int
	// Task is the hidden oracle channel carrying the current example; see
	// the package comment for the simulation contract.
	Task *spider.Example
	// CoT marks chain-of-thought prompting (DIN-SQL): reduces intent errors,
	// more with the stronger tier.
	CoT bool
	// Calibrated marks C3-style calibration instructions: reduces
	// hallucination rates.
	Calibrated bool
	// Seed decorrelates sampling across pipeline runs; pipelines derive it
	// from the example ID so whole-benchmark runs are reproducible.
	Seed int64
	// Ctx optionally carries the request context for observability (span
	// annotations). It never influences the Response and is excluded from
	// cache keys; a nil Ctx is valid.
	Ctx context.Context
}

// Response carries the sampled SQL strings plus token accounting.
type Response struct {
	SQLs         []string
	InputTokens  int
	OutputTokens int
}

// Client is an LLM service.
type Client interface {
	Name() string
	Complete(Request) Response
}

// Tier selects the simulated model strength.
type Tier int

// Simulated model tiers. PLM models the fine-tuned seq2seq family (PICARD /
// RESDSQL / Graphix-T5): fine-tuning gives them tight control over the
// generated composition and surface form (high EM) at the cost of weaker NL
// understanding than LLMs (more intent errors), and they neither use nor
// benefit from in-prompt demonstrations.
const (
	ChatGPT Tier = iota
	GPT4
	PLM
)

func (t Tier) String() string {
	switch t {
	case GPT4:
		return "GPT4"
	case PLM:
		return "PLM"
	}
	return "ChatGPT"
}

// profile holds the behavioural rates of a tier. The values are calibrated
// so that the baseline pipelines land in the paper's reported orderings
// (Tables 4 and 5); EXPERIMENTS.md records the resulting numbers.
type profile struct {
	// composePrior is the probability of producing the gold operator
	// composition unguided on guidance-needing classes.
	composePrior float64
	// styleAdherence is the probability of keeping the gold's surface form
	// on style classes (equivalent-but-different formulations) unguided.
	styleAdherence float64
	// linkErrBase is the per-query intent/schema-linking error rate before
	// schema-size and variant scaling.
	linkErrBase float64
	// halluBase is the per-sample hallucination rate.
	halluBase float64
	// cotIntentFactor scales linking errors under CoT prompting.
	cotIntentFactor float64
}

var profiles = map[Tier]profile{
	ChatGPT: {
		composePrior:    0.22,
		styleAdherence:  0.34,
		linkErrBase:     0.155,
		halluBase:       0.13,
		cotIntentFactor: 0.85, // ChatGPT benefits little from CoT (the paper's error-propagation point)
	},
	GPT4: {
		composePrior:    0.48,
		styleAdherence:  0.52,
		linkErrBase:     0.120,
		halluBase:       0.06,
		cotIntentFactor: 0.55,
	},
	PLM: {
		composePrior:    0.88,
		styleAdherence:  0.96,
		linkErrBase:     0.165,
		halluBase:       0.01,
		cotIntentFactor: 1.0,
	},
}
