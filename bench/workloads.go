package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// workload is one traffic mix: how the shard is started and how load is
// driven against it.
type workload struct {
	name      string
	shardArgs []string // flags beyond the shipped defaults
	tenants   bool     // router in front, tenants registered
	// tail is the latency quantile printed as diag.latency_tail_ms: the
	// highest with at least ten samples beyond it.
	tail float64
	// layers must read above 0 in a traced run: the stages the workload
	// runs, so a renamed or lost span fails the run instead of reading 0.
	layers []string
	// prepare runs untimed before the measured window (and before the
	// counters are first read): answer probes and warm-up.
	prepare func(ctx context.Context, r *runner, lv *live, cfg runConfig, o *outcome) error
	drive   func(ctx context.Context, r *runner, lv *live, cfg runConfig, o *outcome) error
}

// stageLayers are the pipeline's; a single translation is also graded under
// a span, a batch's items are not.
var (
	stageLayers = []string{
		"classifier.prune_ms", "predictor.predict_ms", "selection.select_ms",
		"prompt.build_ms", "llm.complete_ms", "adaption.vote_ms",
	}
	askLayers = append([]string{"eval.ex_ms"}, stageLayers...)
)

var workloads = map[string]*workload{
	"ask-cold": {name: "ask-cold", tail: 0.99, layers: askLayers, drive: driveAskCold},
	"bulk-cold": {name: "bulk-cold", tail: 0.90, shardArgs: []string{"-cache", "0"},
		layers: stageLayers, prepare: warmBulkCold, drive: driveBulkCold},
	"tenant-mixed": {name: "tenant-mixed", tail: 0.99, tenants: true,
		layers:  []string{"catalog.lookup_us", "sqlexec.tenant_exec_ms", "catalog.reregister_ms", "router.proxy_ms"},
		prepare: prepareTenants, drive: driveTenantMixed},
}

// devOrder is the seeded permutation of n items every workload draws its
// request order from.
func devOrder(seed int64, n int) []int { return rand.New(rand.NewSource(seed)).Perm(n) }

type translateAnswer struct {
	SQL         string `json:"sql"`
	ExactMatch  *bool  `json:"exact_match"`
	ExecMatch   *bool  `json:"exec_match"`
	TotalTokens int    `json:"total_tokens"`
	DemosUsed   int    `json:"demos_used"`
	Database    string `json:"database"`
	State       string `json:"state"`
}

func deref(b *bool) bool { return b != nil && *b }

// askTask translates dev task id and checks the answer against the
// reference.
func askTask(ctx context.Context, c *http.Client, base string, id int, want answer) (answer, error) {
	var got translateAnswer
	if err := call(ctx, c, http.MethodPost, base+"/v1/translate", map[string]int{"task_id": id}, &got); err != nil {
		return answer{}, err
	}
	a := answer{SQL: got.SQL, EM: deref(got.ExactMatch), EX: deref(got.ExecMatch),
		Tokens: got.TotalTokens, Demos: got.DemosUsed}
	if a != want {
		return a, fmt.Errorf("task %d: served %+v, reference %+v", id, a, want)
	}
	return a, nil
}

// askColdWindow is ask-cold's open-loop schedule: every dev task once, one
// due every askColdWindow/1,034 (41.4 req/s), whatever --seconds says, so
// its offered load is the same in every run. BENCHMARK.json's run_seconds
// matches it.
const askColdWindow = 25 * time.Second

// driveAskCold sends every dev task exactly once, in seeded order, on an
// open-loop schedule. Each request is timed from when it was due, so a
// request that waits for the connection keeps its clock running.
func driveAskCold(ctx context.Context, r *runner, lv *live, cfg runConfig, o *outcome) error {
	want := r.ref.answers
	order := devOrder(cfg.seed, len(want))
	interval := askColdWindow / time.Duration(len(order))
	served := make([]answer, len(want))
	slots := make(chan struct{}, connections)
	var wg sync.WaitGroup
	start := time.Now()
	for i, id := range order {
		due := start.Add(time.Duration(i) * interval)
		if err := sleepUntil(ctx, due); err != nil {
			wg.Wait()
			return err
		}
		slots <- struct{}{}
		o.lateMax = max(o.lateMax, time.Since(due))
		wg.Add(1)
		go func(id int, due time.Time) {
			defer wg.Done()
			defer func() { <-slots }()
			tctx, sc := lv.led.begin(ctx)
			a, err := askTask(tctx, lv.client, lv.front, id, want[id])
			o.record(time.Since(due), err)
			served[id] = a
			if err == nil {
				lv.led.demos(a.Demos, 1)
				o.trace(lv.led.end(ctx, lv.client, lv.front, sc))
			}
		}(id, due)
	}
	wg.Wait()
	o.window = time.Since(start)
	o.served(served)
	return nil
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// batchSize tasks go in each bulk-cold request; 22 batches are one pass
// over the 1,034 dev tasks.
const batchSize = 47

type batchAnswer struct {
	Results []struct {
		TaskID     int    `json:"task_id"`
		SQL        string `json:"sql"`
		ExactMatch bool   `json:"exact_match"`
		ExecMatch  bool   `json:"exec_match"`
		DemosUsed  int    `json:"demos_used"`
	} `json:"results"`
	InputTokens  int `json:"input_tokens"`
	OutputTokens int `json:"output_tokens"`
}

// bulkBatches cuts a fixed shuffle of the dev tasks into batches. The
// batches are the same in every run and only their order follows the seed:
// batch cost varies with its tasks, and fixed contents keep seed-to-seed
// differences down to the machine's.
func bulkBatches(n int) [][]int {
	order := devOrder(0, n)
	var out [][]int
	for i := 0; i < n; i += batchSize {
		out = append(out, order[i:min(i+batchSize, n)])
	}
	return out
}

// warmBulkCold sends every batch once, untimed, before the measured window:
// the first pass fills the shard's plan caches and costs more than later
// ones, and a run's number of later passes follows the machine's speed. The
// pass serves the whole dev set, so it also gives the workload's accuracy.
func warmBulkCold(ctx context.Context, r *runner, lv *live, cfg runConfig, o *outcome) error {
	served := make([]answer, len(r.ref.answers))
	err := bulkPass(ctx, r, lv, cfg, o, served, func(_ time.Duration, items, bad int, err error) {
		o.account(items, bad, err)
	})
	o.served(served)
	return err
}

// driveBulkCold sends the batches in whole passes until a pass ends after
// the run's duration is up, so every run translates each dev task the same
// number of times.
func driveBulkCold(ctx context.Context, r *runner, lv *live, cfg runConfig, o *outcome) error {
	start := time.Now()
	deadline := start.Add(cfg.duration())
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if err := bulkPass(ctx, r, lv, cfg, o, nil, o.recordItems); err != nil {
			return err
		}
	}
	o.window = time.Since(start)
	return nil
}

// bulkPass sends every batch once, one at a time in seeded order, checks
// each answer against the reference, stores the answers in served when it
// is not nil, and accounts every batch with account.
func bulkPass(ctx context.Context, r *runner, lv *live, cfg runConfig, o *outcome, served []answer,
	account func(d time.Duration, items, bad int, err error)) error {
	want := r.ref.answers
	all := bulkBatches(len(want))
	for _, b := range devOrder(cfg.seed, len(all)) {
		if err := ctx.Err(); err != nil {
			return err
		}
		ids := all[b]
		tctx, sc := lv.led.begin(ctx)
		t0 := time.Now()
		var got batchAnswer
		err := call(tctx, lv.client, http.MethodPost, lv.front+"/v1/batch", map[string]any{"task_ids": ids}, &got)
		d := time.Since(t0)
		if err == nil && len(got.Results) != len(ids) {
			err = fmt.Errorf("batch of %d answered with %d results", len(ids), len(got.Results))
		}
		bad, wantTokens, demos := 0, 0, 0
		for i, id := range ids {
			wantTokens += want[id].Tokens
			if err != nil {
				continue
			}
			g := got.Results[i]
			// Batch items carry no token count; the batch total is checked below.
			a := answer{SQL: g.SQL, EM: g.ExactMatch, EX: g.ExecMatch, Tokens: want[id].Tokens, Demos: g.DemosUsed}
			demos += a.Demos
			if g.TaskID != id || a != want[id] {
				bad++
				o.note(fmt.Errorf("batch item %d (task %d): served %+v, reference %+v", i, id, a, want[id]))
				continue
			}
			if served != nil {
				served[id] = a
			}
		}
		if err == nil && got.InputTokens+got.OutputTokens != wantTokens {
			err = fmt.Errorf("batch tokens %d, reference %d", got.InputTokens+got.OutputTokens, wantTokens)
		}
		account(d, len(ids), bad, err)
		if err == nil {
			lv.led.demos(demos, len(ids))
			o.trace(lv.led.end(ctx, lv.client, lv.front, sc))
		}
	}
	return nil
}

// writeEvery: in tenant-mixed, every writeEvery-th operation re-registers a
// tenant instead of reading, about ten a second. Counting operations rather
// than seconds keeps the mix of reads and writes, and so the CPU time per
// read, the same however fast the machine runs.
const writeEvery = 100

// tenantWarmOps operations run untimed before tenant-mixed's measured
// window, so that every tenant's caches and the router's connections are
// warm when it opens.
const tenantWarmOps = 1000

// driveTenantMixed runs the tenant operation stream in a closed loop until
// the run's duration is up.
func driveTenantMixed(ctx context.Context, r *runner, lv *live, cfg runConfig, o *outcome) error {
	next := tenantReads(cfg.seed)
	start := time.Now()
	deadline := start.Add(cfg.duration())
	for k := 1; ctx.Err() == nil && time.Now().Before(deadline); k++ {
		tenantOp(ctx, lv, k, next, o, true)
	}
	o.window = time.Since(start)
	return ctx.Err()
}

// tenantOp performs operation k of the tenant stream: tenant reads through
// the router, translate and execute 1:3, and every writeEvery-th operation
// a re-register of the next tenant, round robin, polled back to ready
// before the stream goes on. The operation is accounted with o, timed or
// not.
func tenantOp(ctx context.Context, lv *live, k int, next func() tenantRead, o *outcome, timed bool) {
	if k%writeEvery == 0 {
		// The PUT is the traced request; the polls that follow are not.
		name := tenantName(k / writeEvery % tenantCount)
		tctx, sc := lv.led.begin(ctx)
		t0 := time.Now()
		var st tenantStatus
		err := call(tctx, lv.client, http.MethodPut, lv.front+"/v1/databases/"+name, fixtureRegistration(name), &st)
		if err == nil {
			err = awaitReady(ctx, lv.client, lv.front, name, st.Version)
		}
		if timed {
			o.recordWrite(time.Since(t0), err)
		} else {
			o.check(err)
		}
		if err == nil {
			o.trace(lv.led.end(ctx, lv.client, lv.front, sc))
		}
		return
	}
	op := next()
	tctx, sc := lv.led.begin(ctx)
	t0 := time.Now()
	demos, err := op.do(tctx, lv.client, lv.front, lv.expectSQL)
	if timed {
		o.record(time.Since(t0), err)
	} else {
		o.check(err)
	}
	if err == nil {
		if !op.execute {
			lv.led.demos(demos, 1)
		}
		o.trace(lv.led.end(ctx, lv.client, lv.front, sc))
	}
}

// tenantRead is one generated tenant-mixed read.
type tenantRead struct {
	execute bool
	tenant  string
	q       int // index into the fixture's questions or queries
}

// tenantReads is the seeded read stream: one translate in four.
func tenantReads(seed int64) func() tenantRead {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7919))
	return func() tenantRead {
		return tenantRead{
			execute: rng.Intn(4) != 0,
			tenant:  tenantName(rng.Intn(tenantCount)),
			q:       rng.Intn(len(fixtureQueries)),
		}
	}
}

type executeAnswer struct {
	Rows  [][]string `json:"rows"`
	Error string     `json:"error"`
}

// do sends the read and checks it: execute rows must equal the fixture's,
// and a translation must equal the ready SQL probed at set up (the loop
// reads a tenant only once it is ready again after a write). A translation
// returns the demonstrations its prompt used.
func (op tenantRead) do(ctx context.Context, c *http.Client, base string, expectSQL []string) (int, error) {
	if op.execute {
		var got executeAnswer
		if err := call(ctx, c, http.MethodPost, base+"/v1/execute",
			map[string]string{"database": op.tenant, "sql": fixtureQueries[op.q]}, &got); err != nil {
			return 0, err
		}
		if got.Error != "" || !rowsEqual(got.Rows, fixtureRows[op.q]) {
			return 0, fmt.Errorf("%s %q: rows %v error %q, want %v", op.tenant, fixtureQueries[op.q], got.Rows, got.Error, fixtureRows[op.q])
		}
		return 0, nil
	}
	var got translateAnswer
	if err := call(ctx, c, http.MethodPost, base+"/v1/translate",
		map[string]string{"database": op.tenant, "question": fixtureQuestions[op.q]}, &got); err != nil {
		return 0, err
	}
	switch {
	case got.Database != op.tenant:
		return 0, fmt.Errorf("%s: translation served by tenant %q", op.tenant, got.Database)
	case got.State != "ready" || got.SQL != expectSQL[op.q]:
		return 0, fmt.Errorf("%s %q: %s SQL %q, want ready %q", op.tenant, fixtureQuestions[op.q], got.State, got.SQL, expectSQL[op.q])
	}
	return got.DemosUsed, nil
}

// prepareTenants learns the ready tenants' translation of each fixture
// question, checks every query's rows, and runs the warm-up operations, all
// untimed, before the load starts.
func prepareTenants(ctx context.Context, r *runner, lv *live, cfg runConfig, o *outcome) error {
	name, c := tenantName(0), r.ctl
	for q, question := range fixtureQuestions {
		var got translateAnswer
		if err := call(ctx, c, http.MethodPost, lv.front+"/v1/translate",
			map[string]string{"database": name, "question": question}, &got); err != nil {
			return err
		}
		if got.State != "ready" || got.SQL == "" {
			return fmt.Errorf("probe %q: state %q, SQL %q", question, got.State, got.SQL)
		}
		lv.expectSQL = append(lv.expectSQL, got.SQL)
		_, err := tenantRead{execute: true, tenant: name, q: q}.do(ctx, c, lv.front, nil)
		o.check(err)
	}
	next := tenantReads(cfg.seed)
	for k := 1; k <= tenantWarmOps && ctx.Err() == nil; k++ {
		tenantOp(ctx, lv, k, next, o, false)
	}
	return ctx.Err()
}
