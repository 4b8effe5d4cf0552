package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/selection"
	"repro/internal/spider"
)

// Table1 reproduces Table 1: EM/EX of prior LLM-based approaches on Spider
// dev (a preview of the Table 4 rows motivating the paper).
func (env *Env) Table1(opts RunOptions) string {
	dev := env.Corpus.Dev
	rows := [][]string{}
	for _, tr := range []core.Translator{
		env.ChatGPTSQL(llm.ChatGPT),
		env.C3(llm.ChatGPT),
		env.DINSQL(llm.GPT4),
		env.DAILSQL(llm.GPT4),
	} {
		s := env.Run(tr, dev, opts)
		rows = append(rows, []string{s.Strategy, pct(s.EM), pct(s.EX)})
	}
	return FormatTable("Table 1: LLMs-based approaches accuracy on Spider",
		[]string{"Strategy", "EM%", "EX%"}, rows)
}

// Table3 reproduces Table 3: the statistics of the five benchmark splits.
func (env *Env) Table3() string {
	rows := [][]string{}
	for _, b := range []*spider.Benchmark{
		env.Corpus.Train, env.Corpus.Dev, env.Corpus.DK, env.Corpus.Realistic, env.Corpus.Syn,
	} {
		st := b.Stat()
		rows = append(rows, []string{
			strings.ToUpper(b.Name),
			fmt.Sprintf("%d", st.Queries),
			fmt.Sprintf("%d", st.Databases),
			fmt.Sprintf("%.1f", st.AvgNLLen),
			fmt.Sprintf("%.1f", st.AvgSQLLen),
		})
	}
	return FormatTable("Table 3: The statistics of NL2SQL benchmarks",
		[]string{"Benchmark", "Queries", "Databases", "AvgNL", "AvgSQL"}, rows)
}

// Table4 reproduces Table 4: overall EM/EX/TS on Spider dev for PLM-based
// approaches, LLM-based approaches and PURPLE. PICARD and RESDSQL share one
// stand-in, the PLM tier queried zero-shot, so one row serves both.
func (env *Env) Table4(opts RunOptions) string {
	opts.WithTS = true
	dev := env.Corpus.Dev
	rows := [][]string{}
	for _, tr := range []core.Translator{
		env.PLM("PICARD/RESDSQL stand-in"),
		env.ChatGPTSQL(llm.ChatGPT),
		env.C3(llm.ChatGPT),
		env.DINSQL(llm.GPT4),
		env.DAILSQL(llm.GPT4),
		env.Purple(llm.ChatGPT),
		env.Purple(llm.GPT4),
	} {
		s := env.Run(tr, dev, opts)
		rows = append(rows, []string{s.Strategy, pct(s.EM), pct(s.EX), pct(s.TS)})
	}
	return FormatTable("Table 4: Translation accuracy on Spider",
		[]string{"Strategy", "EM%", "EX%", "TS%"}, rows)
}

// Figure9 reproduces Figure 9: EM/EX by SQL hardness level on Spider dev.
func (env *Env) Figure9(opts RunOptions) string {
	dev := env.Corpus.Dev
	buckets := []string{"easy", "medium", "hard", "extra"}
	header := []string{"Strategy"}
	for _, b := range buckets {
		header = append(header, b+"-EM", b+"-EX")
	}
	rows := [][]string{}
	for _, tr := range []core.Translator{
		env.Purple(llm.GPT4),
		env.Purple(llm.ChatGPT),
		env.DAILSQL(llm.GPT4),
		env.DINSQL(llm.GPT4),
		env.C3(llm.ChatGPT),
	} {
		s := env.Run(tr, dev, opts)
		row := []string{s.Strategy}
		for _, b := range buckets {
			h := s.ByHardness[b]
			row = append(row, pct(h[0]), pct(h[1]))
		}
		rows = append(rows, row)
	}
	return FormatTable("Figure 9: EM/EX by SQL hardness on Spider dev", header, rows)
}

// Figure10 reproduces Figure 10: generalization to Spider-DK, Spider-SYN
// and Spider-Realistic.
func (env *Env) Figure10(opts RunOptions) string {
	header := []string{"Strategy", "DK-EM", "DK-EX", "SYN-EM", "SYN-EX", "Real-EM", "Real-EX"}
	rows := [][]string{}
	for _, tr := range []core.Translator{
		env.ChatGPTSQL(llm.ChatGPT),
		env.C3(llm.ChatGPT),
		env.Purple(llm.ChatGPT),
	} {
		row := []string{tr.Name()}
		for _, b := range []*spider.Benchmark{env.Corpus.DK, env.Corpus.Syn, env.Corpus.Realistic} {
			s := env.Run(tr, b, opts)
			row = append(row, pct(s.EM), pct(s.EX))
		}
		rows = append(rows, row)
	}
	return FormatTable("Figure 10: EM/EX on Spider-DK / Spider-SYN / Spider-Realistic", header, rows)
}

// Figure11 reproduces Figure 11: the budget grid — EM, EX and token cost
// under input-length budgets (len) and consistency numbers (num).
func (env *Env) Figure11(opts RunOptions) string {
	lens := []int{512, 1024, 2048, 3072}
	nums := []int{1, 10, 20, 30, 40}
	var sb strings.Builder
	sb.WriteString("Figure 11: PURPLE (ChatGPT) under budget settings (EM% / EX% / tok-per-query-k)\n")
	sb.WriteString(fmt.Sprintf("%-8s", "len\\num"))
	for _, n := range nums {
		sb.WriteString(fmt.Sprintf("%-22d", n))
	}
	sb.WriteString("\n")
	for _, l := range lens {
		sb.WriteString(fmt.Sprintf("%-8d", l))
		for _, n := range nums {
			// The real ChatGPT caps a call at 4096 tokens; mirror the N/A cell.
			if l+n*30 > 4096 && l == 3072 && n == 40 {
				sb.WriteString(fmt.Sprintf("%-22s", "N/A"))
				continue
			}
			cfg := core.DefaultConfig()
			cfg.PromptTokens = l
			cfg.Consistency = n
			s := env.Run(env.PurpleWith(llm.ChatGPT, cfg), env.Corpus.Dev, opts)
			cell := fmt.Sprintf("%.1f/%.1f/%.2f", s.EM, s.EX, s.InTokensPerQ+s.OutTokensPerQ)
			sb.WriteString(fmt.Sprintf("%-22s", cell))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Figure12 reproduces Figure 12: robustness of demonstration selection to
// the generalization schedule (left) and to skeleton-prediction noise
// (right).
func (env *Env) Figure12(opts RunOptions) string {
	var sb strings.Builder
	sb.WriteString("Figure 12: Robustness of demonstration selection (PURPLE, ChatGPT)\n")
	sb.WriteString("Left: p0 x INCREASE-Generalization policy (EM% / EX%)\n")
	policies := []struct {
		name string
		mk   func(p0 int) selection.Policy
	}{
		{"Linear-1", func(p0 int) selection.Policy { return selection.Linear(p0, 1) }},
		{"Linear-3", func(p0 int) selection.Policy { return selection.Linear(p0, 3) }},
		{"Exp-2", func(p0 int) selection.Policy { return selection.Exp(p0, 2) }},
	}
	sb.WriteString(fmt.Sprintf("%-10s", "policy\\p0"))
	p0s := []int{1, 3, 6, 9}
	for _, p0 := range p0s {
		sb.WriteString(fmt.Sprintf("%-14d", p0))
	}
	sb.WriteString("\n")
	for _, pol := range policies {
		sb.WriteString(fmt.Sprintf("%-10s", pol.name))
		for _, p0 := range p0s {
			cfg := core.DefaultConfig()
			cfg.Policy = pol.mk(p0)
			s := env.Run(env.PurpleWith(llm.ChatGPT, cfg), env.Corpus.Dev, opts)
			sb.WriteString(fmt.Sprintf("%-14s", fmt.Sprintf("%.1f/%.1f", s.EM, s.EX)))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("Right: masking-number x Drop-probability (EM% / EX%)\n")
	sb.WriteString(fmt.Sprintf("%-10s", "drop\\mask"))
	masks := []int{0, 1, 2, 3}
	for _, m := range masks {
		sb.WriteString(fmt.Sprintf("%-14d", m))
	}
	sb.WriteString("\n")
	for _, drop := range []float64{0, 0.5, 1} {
		sb.WriteString(fmt.Sprintf("%-10s", fmt.Sprintf("Drop-%.1f", drop)))
		for _, m := range masks {
			cfg := core.DefaultConfig()
			cfg.MaskLevels = m
			cfg.DropProb = drop
			s := env.Run(env.PurpleWith(llm.ChatGPT, cfg), env.Corpus.Dev, opts)
			sb.WriteString(fmt.Sprintf("%-14s", fmt.Sprintf("%.1f/%.1f", s.EM, s.EX)))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Table5 reproduces Table 5: EM/EX of each strategy under ChatGPT vs GPT4.
func (env *Env) Table5(opts RunOptions) string {
	dev := env.Corpus.Dev
	rows := [][]string{}
	add := func(name string, mk func(llm.Tier) core.Translator) {
		g := env.Run(mk(llm.GPT4), dev, opts)
		c := env.Run(mk(llm.ChatGPT), dev, opts)
		rows = append(rows, []string{name, "GPT4", pct(g.EM), pct(g.EX)})
		rows = append(rows, []string{name, "ChatGPT",
			fmt.Sprintf("%s(%+.1f)", pct(c.EM), c.EM-g.EM),
			fmt.Sprintf("%s(%+.1f)", pct(c.EX), c.EX-g.EX)})
	}
	add("DIN-SQL", func(t llm.Tier) core.Translator { return env.DINSQL(t) })
	add("C3", func(t llm.Tier) core.Translator { return env.C3(t) })
	add("DAIL-SQL", func(t llm.Tier) core.Translator { return env.DAILSQL(t) })
	add("PURPLE", func(t llm.Tier) core.Translator { return env.Purple(t) })
	return FormatTable("Table 5: EM/EX comparison between ChatGPT and GPT4",
		[]string{"Strategy", "LLM", "EM%", "EX%"}, rows)
}

// Table6 reproduces Table 6: the ablation study on PURPLE (ChatGPT).
func (env *Env) Table6(opts RunOptions) string {
	dev := env.Corpus.Dev
	base := env.Run(env.Purple(llm.ChatGPT), dev, opts)
	rows := [][]string{{"PURPLE (ChatGPT)", pct(base.EM), pct(base.EX)}}
	variant := func(label string, mutate func(*core.Config)) {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		s := env.Run(env.PurpleWith(llm.ChatGPT, cfg), dev, opts)
		rows = append(rows, []string{label,
			fmt.Sprintf("%s(%+.1f)", pct(s.EM), s.EM-base.EM),
			fmt.Sprintf("%s(%+.1f)", pct(s.EX), s.EX-base.EX)})
	}
	variant("-Schema Pruning", func(c *core.Config) { c.UseSchemaPruning = false })
	variant("-Steiner Tree", func(c *core.Config) { c.UseSteinerTree = false })
	variant("-Demonstration Selection", func(c *core.Config) { c.UseSelection = false })
	variant("-Database Adaption", func(c *core.Config) { c.UseAdaption = false })
	variant("+Oracle Skeleton", func(c *core.Config) { c.OracleSkeleton = true })
	return FormatTable("Table 6: Ablation Study", []string{"Strategy", "EM%", "EX%"}, rows)
}
