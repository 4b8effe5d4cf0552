package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/loadgen"
)

const (
	// connections is the load's concurrency: every request of a run goes
	// over one connection, one at a time, so the server never runs two of
	// them at once and its CPU time divides exactly among the requests,
	// however they would have overlapped.
	connections = 1
	// setupBoots is how many times a run boots its topology; setup_s is
	// their median and the last boot serves the measured load.
	setupBoots = 3
	// tenantCount tenants are registered for tenant-mixed.
	tenantCount = 8
)

// runner holds what every run of one benchmark process shares: the built
// server binary and the reference pass.
type runner struct {
	spec   *Spec
	root   string
	outDir string
	runDir string // scratch space for tenant data directories
	server string
	ctl    *http.Client // health checks, scrapes and setup probes; never load
	out    io.Writer
	ref    *reference // loaded by the first run
}

// runConfig is one invocation: a workload, its input seed, the measured
// duration and whether the servers record the load's spans.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

func newRunner(ctx context.Context, spec *Spec, root string, out io.Writer) (*runner, error) {
	r := &runner{
		spec:   spec,
		root:   root,
		outDir: filepath.Join(root, "bench", "out"),
		runDir: filepath.Join(root, ".bench_build", "run"),
		server: filepath.Join(root, ".bench_build", "nl2sql-server"),
		ctl:    &http.Client{Timeout: 10 * time.Second},
		out:    out,
	}
	for _, d := range []string{r.outDir, r.runDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if err := buildServer(ctx, root, r.server); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *runner) reference(ctx context.Context) (*reference, error) {
	if r.ref == nil {
		ref, err := loadReference(ctx, filepath.Dir(r.server))
		if err != nil {
			return nil, err
		}
		r.ref = ref
	}
	return r.ref, nil
}

// live is one booted topology: a shard, and for tenant-mixed a router in
// front of it with the tenants registered.
type live struct {
	shard, router *proc
	client        *http.Client // the run's load client
	front         string       // where load is sent
	dataDir       string
	led           *ledger // nil unless the run is traced
	// expectSQL is the ready tenant's translation of each fixture question.
	expectSQL []string
}

// cpu is the CPU time the topology's server processes have used so far.
func (l *live) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range []*proc{l.shard, l.router} {
		if p == nil {
			continue
		}
		d, err := processCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// stop stops the processes and removes their data; a second call is a no-op.
func (l *live) stop() {
	l.router.stop()
	l.shard.stop()
	l.router, l.shard = nil, nil
	if l.dataDir != "" {
		os.RemoveAll(l.dataDir)
		l.dataDir = ""
	}
}

// boot starts the workload's topology and returns it with its set-up wall
// time: from the first process exec until every process answers /healthz
// and, with tenants, until every tenant is ready.
func (r *runner) boot(ctx context.Context, w *workload, n int) (*live, time.Duration, error) {
	l := &live{client: newClient(connections)}
	args := append([]string{"-scale", strconv.FormatFloat(corpusScale, 'f', -1, 64),
		"-seed", strconv.Itoa(corpusSeed)}, w.shardArgs...)
	if w.tenants {
		l.dataDir = filepath.Join(r.runDir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), n))
		os.RemoveAll(l.dataDir)
		args = append(args, "-data-dir", l.dataDir)
	}
	start := time.Now()
	var err error
	if l.shard, err = startServer(r.server, filepath.Join(r.outDir, w.name+"-shard.log"), args...); err != nil {
		return nil, 0, err
	}
	if err := waitHealthy(ctx, r.ctl, l.shard); err != nil {
		l.stop()
		return nil, 0, err
	}
	l.front = l.shard.url()
	if w.tenants {
		if l.router, err = startServer(r.server, filepath.Join(r.outDir, w.name+"-router.log"),
			"-router", "-shards", l.shard.addr); err != nil {
			l.stop()
			return nil, 0, err
		}
		if err := waitHealthy(ctx, r.ctl, l.router); err != nil {
			l.stop()
			return nil, 0, err
		}
		l.front = l.router.url()
		if err := registerTenants(ctx, r.ctl, l.front); err != nil {
			l.stop()
			return nil, 0, err
		}
	}
	return l, time.Since(start), nil
}

func tenantName(i int) string { return fmt.Sprintf("bench-%d", i) }

// registerTenants registers every tenant with loadgen's fixture and waits
// until all are ready.
func registerTenants(ctx context.Context, c *http.Client, base string) error {
	for i := 0; i < tenantCount; i++ {
		status, err := loadgen.RegisterTenant(ctx, c, base, tenantName(i))
		if err != nil {
			return fmt.Errorf("registering %s: %v", tenantName(i), err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("registering %s: HTTP %d", tenantName(i), status)
		}
	}
	for i := 0; i < tenantCount; i++ {
		if err := awaitReady(ctx, c, base, tenantName(i), 1); err != nil {
			return err
		}
	}
	return nil
}

type tenantStatus struct {
	State   string `json:"state"`
	Version int    `json:"version"`
}

// readyPoll is the pause between polls of a rebuilding tenant. Polling back
// to back would make the number of polls, and so the server CPU they cost,
// follow how fast the machine happens to run.
const readyPoll = time.Millisecond

// awaitReady polls a tenant until it reports ready at version or later.
func awaitReady(ctx context.Context, c *http.Client, base, name string, version int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st tenantStatus
		if err := call(ctx, c, http.MethodGet, base+"/v1/databases/"+name, nil, &st); err != nil {
			return err
		}
		if st.State == "ready" && st.Version >= version {
			return nil
		}
		if err := sleepUntil(ctx, time.Now().Add(readyPoll)); err != nil {
			return err
		}
	}
	return fmt.Errorf("tenant %s not ready at version %d after 30s", name, version)
}

// outcome accumulates what a workload's load produced.
type outcome struct {
	mu         sync.Mutex
	samples    []sample
	attempted  int64
	failed     int64
	mismatches []string
	window     time.Duration // measured wall time

	// Served accuracy, set by workloads that serve the whole dev set once.
	servedDev      bool
	ex, em, tokens float64
	lateMax        time.Duration // open-loop generator lateness
	writeReadyMs   []float64
	writes         int64
}

const maxMismatches = 5

// note keeps the first few failure descriptions for the report.
func (o *outcome) note(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.noteLocked(err)
}

func (o *outcome) noteLocked(err error) {
	if len(o.mismatches) < maxMismatches {
		o.mismatches = append(o.mismatches, err.Error())
	}
}

// sample is one timed request: how long it took (+Inf when it failed, so a
// failure misses every latency limit) and how many operations it completed
// successfully.
type sample struct {
	ms   float64
	good int
}

// record accounts one timed operation.
func (o *outcome) record(d time.Duration, err error) { o.recordItems(d, 1, 0, err) }

// recordItems accounts one timed request carrying items operations, of
// which bad failed; err (when set) fails all of them.
func (o *outcome) recordItems(d time.Duration, items, bad int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	bad = o.accountLocked(items, bad, err)
	s := sample{ms: ms(d), good: items - bad}
	if bad > 0 {
		s.ms = math.Inf(1)
	}
	o.samples = append(o.samples, s)
}

// account accounts an untimed request (probes, warm-up) carrying items
// operations, of which bad failed; err (when set) fails all of them.
func (o *outcome) account(items, bad int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.accountLocked(items, bad, err)
}

func (o *outcome) accountLocked(items, bad int, err error) int {
	if err != nil {
		bad = items
		o.noteLocked(err)
	}
	o.attempted += int64(items)
	o.failed += int64(bad)
	return bad
}

// good is the number of operations that succeeded in the measured window.
func (o *outcome) good() int {
	n := 0
	for _, s := range o.samples {
		n += s.good
	}
	return n
}

// latency returns the exact p50 and tail-quantile request latency (nearest
// rank over every sample).
func (o *outcome) latency(tail float64) (p50, pTail float64) {
	lat := make([]float64, len(o.samples))
	for i, s := range o.samples {
		lat[i] = s.ms
	}
	return rankQuantile(lat, 0.50), rankQuantile(lat, tail)
}

// check accounts one untimed operation.
func (o *outcome) check(err error) { o.account(1, 0, err) }

// trace accounts a traced request's span fetch, which fails the run when
// the tree cannot be had.
func (o *outcome) trace(err error) {
	if err != nil {
		o.check(err)
	}
}

func (o *outcome) recordWrite(d time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.writes++
	if err != nil {
		o.failed++
		o.noteLocked(err)
		return
	}
	o.writeReadyMs = append(o.writeReadyMs, ms(d))
}

// served sets the accuracy of answers covering the whole dev set.
func (o *outcome) served(answers []answer) {
	o.servedDev = true
	o.ex, o.em, o.tokens = accuracy(answers)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's full record, written to bench/out: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
type Result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]Metric `json:"metrics,omitempty"`
	Layers      map[string]Metric `json:"layers,omitempty"`
	Diagnostics map[string]Metric `json:"diagnostics"`
	Mismatches  []string          `json:"mismatches,omitempty"`
}

// run performs one measured run of a workload.
func (r *runner) run(ctx context.Context, cfg runConfig) (*Result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	ref, err := r.reference(ctx)
	if err != nil {
		return nil, err
	}

	cal := startCalibrator()
	defer cal.stop()
	var setupCPU, setupWall []float64
	var lv *live
	for i := 0; i < setupBoots; i++ {
		l, wall, err := r.boot(ctx, w, i)
		if err != nil {
			return nil, fmt.Errorf("%s: boot: %v", w.name, err)
		}
		cpu, err := l.cpu()
		if err != nil {
			l.stop()
			return nil, err
		}
		setupCPU = append(setupCPU, cpu.Seconds())
		setupWall = append(setupWall, wall.Seconds())
		if i < setupBoots-1 {
			l.stop()
		} else {
			lv = l
		}
	}
	defer lv.stop()

	o := &outcome{}
	if w.prepare != nil {
		if err := w.prepare(ctx, r, lv, cfg, o); err != nil {
			return nil, fmt.Errorf("%s: %v", w.name, err)
		}
	}
	if cfg.trace {
		lv.led = newLedger()
	}
	fronts := []*proc{lv.shard, lv.router}
	before := make([]scrape, len(fronts))
	for i, p := range fronts {
		if p != nil {
			if before[i], err = scrapeMetrics(ctx, r.ctl, p.url()); err != nil {
				return nil, err
			}
		}
	}
	steal0, total0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	cpu0, err := lv.cpu()
	if err != nil {
		return nil, err
	}
	if err := w.drive(ctx, r, lv, cfg, o); err != nil {
		return nil, fmt.Errorf("%s: %v", w.name, err)
	}
	cpu1, err := lv.cpu()
	if err != nil {
		return nil, err
	}
	sortMs, copyMs, speed := cal.stop()
	steal1, total1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	after := make([]scrape, len(fronts))
	for i, p := range fronts {
		if p != nil {
			if after[i], err = scrapeMetrics(ctx, r.ctl, p.url()); err != nil {
				return nil, err
			}
		}
	}
	rss, err := lv.shard.peakRSSMB()
	if err != nil {
		return nil, err
	}
	lv.client.CloseIdleConnections()
	lv.stop()
	good := o.good()
	if good == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}

	p50, tail := o.latency(w.tail)
	_, setupMed, _ := quartiles(setupCPU)
	_, setupWallMed, _ := quartiles(setupWall)
	cpuPerOp := ms(cpu1-cpu0) / float64(good)
	res := &Result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Attempted: o.attempted, Failed: o.failed, Mismatches: o.mismatches,
		Diagnostics: map[string]Metric{
			"samples":           {float64(len(o.samples)), "count"},
			"window_s":          {o.window.Seconds(), "s"},
			"sort_kernel_ms":    {sortMs, "ms"},
			"copy_kernel_ms":    {copyMs, "ms"},
			"speed":             {speed, "ratio"},
			"steal_share":       {ratio(steal1-steal0, total1-total0), "ratio"},
			"raw_cpu_ms_per_op": {cpuPerOp, "ms"},
			"raw_setup_s":       {setupMed, "s"},
			"setup_wall_s":      {setupWallMed, "s"},
			"throughput_rps":    {float64(good) / o.window.Seconds(), "req/s"},
			"latency_p50_ms":    {p50, "ms"},
			"latency_tail_ms":   {tail, "ms"},
			"tail_quantile":     {w.tail, "ratio"},
		},
	}
	if o.lateMax > 0 {
		res.Diagnostics["late_max_ms"] = Metric{ms(o.lateMax), "ms"}
	}
	ex, em, tokens := ref.ex, ref.em, ref.tokens
	if o.servedDev {
		if o.ex != ref.ex || o.em != ref.em || o.tokens != ref.tokens {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf(
				"served EX/EM/tokens %.4f/%.4f/%.1f differ from the reference %.4f/%.4f/%.1f",
				o.ex, o.em, o.tokens, ref.ex, ref.em, ref.tokens))
		}
		ex, em, tokens = o.ex, o.em, o.tokens
	}
	if cfg.trace {
		layers, diag := lv.led.spanLayers()
		counterLayers(layers, before, after, o)
		if err := checkLayers(w, layers); err != nil {
			res.Mismatches = append(res.Mismatches, err.Error())
		}
		for k, v := range diag {
			res.Diagnostics[k] = v
		}
		if res.Layers, err = fill(r.spec.PerLayer, layers, true); err != nil {
			return nil, err
		}
		if err := lv.led.write(filepath.Join(r.outDir, "trace-"+w.name+".json"), w.name, cfg.seed); err != nil {
			return nil, err
		}
	} else {
		e2e := map[string]float64{
			"setup_s":             setupMed * speed,
			"cpu_ms_per_op":       cpuPerOp * speed,
			"peak_rss_mb":         rss,
			"ex_accuracy":         ex,
			"em_accuracy":         em,
			"tokens_per_question": tokens,
		}
		if res.Metrics, err = fill(r.spec.EndToEnd, e2e, false); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.Mismatches) == 0
	return res, nil
}

// fill turns computed values into the spec's metric set. Every computed
// name must be in the spec; with zeroFill, a spec metric nothing computed
// is a layer the workload bypassed and reads 0.
func fill(specs []MetricSpec, vals map[string]float64, zeroFill bool) (map[string]Metric, error) {
	out := map[string]Metric{}
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok && !zeroFill {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = Metric{v, m.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %s, which %s does not list", name, specFile)
		}
	}
	return out, nil
}

// report prints every metric as "workload metric value unit", then the
// one-line JSON summary: end-to-end metrics untraced, per-layer traced.
func (r *runner) report(res *Result) error {
	specs, metrics := r.spec.EndToEnd, res.Metrics
	if res.Trace {
		specs, metrics = r.spec.PerLayer, res.Layers
	}
	for _, s := range specs {
		fmt.Fprintf(r.out, "%s %s %s %s\n", res.Workload, s.Name, fmtValue(metrics[s.Name].Value), s.Unit)
	}
	var diag []string
	for name := range res.Diagnostics {
		diag = append(diag, name)
	}
	sort.Strings(diag)
	for _, name := range diag {
		d := res.Diagnostics[name]
		fmt.Fprintf(r.out, "%s diag.%s %s %s\n", res.Workload, name, fmtValue(d.Value), d.Unit)
	}
	for _, m := range res.Mismatches {
		fmt.Fprintf(r.out, "%s mismatch %s\n", res.Workload, m)
	}
	data, err := json.MarshalIndent(sanitize(res), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, "result-"+res.Workload+".json"), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": finite(metrics),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, string(line))
	return nil
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// finite replaces +Inf (a percentile reached by failures) with the largest
// float, since JSON has no infinity; such a run is already incorrect.
func finite(m map[string]Metric) map[string]Metric {
	out := make(map[string]Metric, len(m))
	for k, v := range m {
		if math.IsInf(v.Value, 1) {
			v.Value = math.MaxFloat64
		}
		out[k] = v
	}
	return out
}

func sanitize(res *Result) *Result {
	c := *res
	c.Metrics, c.Layers, c.Diagnostics = finite(res.Metrics), finite(res.Layers), finite(res.Diagnostics)
	return &c
}
