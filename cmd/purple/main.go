// Command purple translates a natural-language question against one of the
// synthetic benchmark databases using the full PURPLE pipeline, printing the
// pipeline's intermediate artifacts (pruned schema, predicted skeletons,
// selected demonstrations) along with the final SQL and its execution result.
//
// Usage:
//
//	purple -list                 # list dev databases
//	purple -db tv -q "What are the countries of all TV channels?"
//	purple -task 12              # run dev task #12 and compare with gold
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/spider"
	"repro/internal/sqlexec"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list dev databases and exit")
		dbArg = flag.String("db", "", "database name (see -list)")
		q     = flag.String("q", "", "natural-language question")
		task  = flag.Int("task", -1, "run this dev example id instead of -db/-q")
		tier  = flag.String("llm", "chatgpt", "simulated LLM tier: chatgpt|gpt4")
		scale = flag.Float64("scale", 0.1, "corpus scale")
	)
	flag.Parse()

	corpus := spider.GenerateSmall(1, *scale)
	t := llm.ChatGPT
	if strings.EqualFold(*tier, "gpt4") {
		t = llm.GPT4
	}
	pipeline := core.New(corpus.Train.Examples, llm.NewSim(t), core.DefaultConfig())

	if *list {
		for _, db := range corpus.Dev.Databases {
			fmt.Printf("%-16s tables: %s\n", db.Name, strings.Join(db.TableNames(), ", "))
		}
		return
	}

	var e *spider.Example
	switch {
	case *task >= 0 && *task < len(corpus.Dev.Examples):
		e = corpus.Dev.Examples[*task]
	case *dbArg != "" && *q != "":
		// Free-form question against a chosen database: there is no gold
		// query, so the simulated LLM cannot be driven; run the retrieval
		// front half and print the prompt artifacts instead.
		if findDB(corpus, *dbArg) == nil {
			fmt.Fprintf(os.Stderr, "unknown database %q; try -list\n", *dbArg)
			os.Exit(1)
		}
		front(pipeline, corpus, *dbArg, *q)
		return
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("database: %s\n", e.DB.Name)
	fmt.Printf("Q:    %s\n", e.NL)
	res := pipeline.Translate(e)
	fmt.Printf("pred: %s\n", res.SQL)
	fmt.Printf("gold: %s\n", e.GoldSQL)
	fmt.Printf("EM=%v EX=%v demos=%d tokens=%d\n",
		eval.ExactSetMatchSQL(res.SQL, e.GoldSQL),
		eval.ExecutionMatch(e.DB, res.SQL, e.GoldSQL),
		res.DemosUsed, res.InputTokens+res.OutputTokens)
	if out, err := sqlexec.ExecSQL(e.DB, res.SQL); err == nil {
		fmt.Printf("result (%d rows): ", len(out.Rows))
		for i, r := range out.Rows {
			if i == 5 {
				fmt.Print("...")
				break
			}
			var cells []string
			for _, v := range r {
				cells = append(cells, v.String())
			}
			fmt.Printf("[%s] ", strings.Join(cells, ", "))
		}
		fmt.Println()
	}
}

func findDB(c *spider.Corpus, name string) *spider.Example {
	for _, e := range c.Dev.Examples {
		if strings.EqualFold(e.DB.Name, name) {
			return e
		}
	}
	return nil
}

// front runs the retrieval half of the pipeline for a free-form question.
func front(p *core.Pipeline, c *spider.Corpus, dbName, q string) {
	e := findDB(c, dbName)
	pruned, preds := p.Retrieve(e.DB, q)
	fmt.Println("pruned schema:")
	fmt.Print(pruned.DB.DDL())
	fmt.Println("predicted skeletons:")
	for i, pr := range preds {
		fmt.Printf("  top-%d (p=%.2f): %s\n", i+1, pr.Prob, pr.Skeleton())
	}
	fmt.Println("(no gold available for free-form questions; the simulated LLM needs a benchmark task)")
}
