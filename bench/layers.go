package main

import "fmt"

// target is the end-to-end metric a per-layer metric should move, and the
// workload it should move it on.
type target struct{ metric, workload string }

// layerTargets is written down before measuring, so that a change to one
// layer predicts which end-to-end number it moves where. Layers a workload
// bypasses report 0 on it.
var layerTargets = map[string]target{
	"classifier.prune_ms":          {"cpu_ms_per_op", "ask-cold"},
	"classifier.tables_kept":       {"tokens_per_question", "ask-cold"},
	"predictor.predict_ms":         {"cpu_ms_per_op", "ask-cold"},
	"selection.select_ms":          {"cpu_ms_per_op", "ask-cold"},
	"selection.demos_ordered":      {"cpu_ms_per_op", "ask-cold"},
	"prompt.build_ms":              {"cpu_ms_per_op", "ask-cold"},
	"prompt.demos_used":            {"ex_accuracy", "ask-cold"},
	"prompt.input_tokens":          {"tokens_per_question", "ask-cold"},
	"llm.complete_ms":              {"cpu_ms_per_op", "bulk-cold"},
	"llm.output_tokens":            {"tokens_per_question", "ask-cold"},
	"llm.cache_hit_ratio":          {"cpu_ms_per_op", "tenant-mixed"},
	"adaption.vote_ms":             {"cpu_ms_per_op", "ask-cold"},
	"adaption.vote_ok_ratio":       {"ex_accuracy", "ask-cold"},
	"eval.ex_ms":                   {"cpu_ms_per_op", "ask-cold"},
	"core.translate_ms":            {"cpu_ms_per_op", "ask-cold"},
	"service.unexplained_ms":       {"cpu_ms_per_op", "ask-cold"},
	"sqlexec.plan_cache_hit_ratio": {"cpu_ms_per_op", "ask-cold"},
	"sqlexec.tenant_exec_ms":       {"cpu_ms_per_op", "tenant-mixed"},
	"catalog.lookup_us":            {"cpu_ms_per_op", "tenant-mixed"},
	"catalog.reregister_ms":        {"cpu_ms_per_op", "tenant-mixed"},
	"catalog.build_useful_ratio":   {"cpu_ms_per_op", "tenant-mixed"},
	"service.write_ready_p50_ms":   {"cpu_ms_per_op", "tenant-mixed"},
	"store.wal_syncs_per_write":    {"cpu_ms_per_op", "tenant-mixed"},
	"store.bytes_saved_per_write":  {"cpu_ms_per_op", "tenant-mixed"},
	"router.proxy_ms":              {"cpu_ms_per_op", "tenant-mixed"},
	"router.hedge_ratio":           {"cpu_ms_per_op", "tenant-mixed"},
	"router.retry_ratio":           {"cpu_ms_per_op", "tenant-mixed"},
}

// spanLayers turns the ledger's sums into per-layer metrics, each a mean per
// span (or per answer) of its kind. Span names are the servers': the
// pipeline's stages are pipeline.prune, pipeline.predict, pipeline.select,
// llm.complete and pipeline.adapt under pipeline.translate, whose own time
// outside them is prompt assembly.
func (l *ledger) spanLayers() (layers map[string]float64, diag map[string]Metric) {
	self := func(name string) float64 { return ratio(l.self[name], l.count[name]) }
	attr := func(span, key string) float64 { return ratio(l.attrs[span+"."+key], l.count[span]) }
	translate := ratio(l.total["pipeline.translate"], l.count["pipeline.translate"])
	layers = map[string]float64{
		"classifier.prune_ms":     self("pipeline.prune"),
		"classifier.tables_kept":  attr("pipeline.prune", "tables_kept"),
		"predictor.predict_ms":    self("pipeline.predict"),
		"selection.select_ms":     self("pipeline.select"),
		"selection.demos_ordered": attr("pipeline.select", "candidates"),
		"prompt.build_ms":         self("pipeline.translate"),
		"prompt.demos_used":       ratio(l.demosUsed, l.translations),
		"prompt.input_tokens":     attr("llm.complete", "input_tokens"),
		"llm.complete_ms":         self("llm.complete"),
		"llm.output_tokens":       attr("llm.complete", "output_tokens"),
		"adaption.vote_ms":        self("pipeline.adapt"),
		"adaption.vote_ok_ratio":  attr("pipeline.adapt", "vote_ok"),
		"eval.ex_ms":              self("eval.exec_match"),
		"core.translate_ms":       translate,
		"service.unexplained_ms":  ratio(l.serviceSelf, l.serviceRoots),
		"sqlexec.tenant_exec_ms":  self("sqlexec.exec"),
		"catalog.lookup_us":       1e3 * ratio(l.total["catalog.lookup"], l.count["catalog.lookup"]),
		"catalog.reregister_ms":   ratio(l.total["PUT /v1/databases/{name}"], l.count["PUT /v1/databases/{name}"]),
		"router.proxy_ms":         ratio(l.routerSelf, l.count["proxy"]),
	}
	diag = map[string]Metric{"trace_trees": {float64(l.trees), "count"}}
	if translate > 0 {
		// The share of the translation its stage spans account for; the
		// rest is prompt assembly and the glue between stages.
		diag["stage_coverage"] = Metric{1 - layers["prompt.build_ms"]/translate, "ratio"}
	}
	return layers, diag
}

// counterLayers derives the per-layer ratios that come from the servers'
// own counters, as deltas over the measured window (shard first, then the
// router when there is one), and the writes' ready times.
func counterLayers(layers map[string]float64, before, after []scrape, o *outcome) {
	shardB, shardA := before[0], after[0]
	hits := delta(shardB, shardA, "llm_cache_hits_total") + delta(shardB, shardA, "tenant_llm_cache_hits_total")
	misses := delta(shardB, shardA, "llm_cache_misses_total") + delta(shardB, shardA, "tenant_llm_cache_misses_total")
	layers["llm.cache_hit_ratio"] = ratio(hits, hits+misses)
	ph, pm := delta(shardB, shardA, "plan_cache_hits_total"), delta(shardB, shardA, "plan_cache_misses_total")
	layers["sqlexec.plan_cache_hit_ratio"] = ratio(ph, ph+pm)
	if o.writes == 0 {
		return
	}
	done := delta(shardB, shardA, "catalog_builds_done_total")
	wasted := delta(shardB, shardA, "catalog_builds_stale_total") + delta(shardB, shardA, "catalog_builds_failed_total")
	layers["catalog.build_useful_ratio"] = ratio(done, done+wasted)
	layers["store.wal_syncs_per_write"] = delta(shardB, shardA, "store_wal_syncs_total") / float64(o.writes)
	layers["store.bytes_saved_per_write"] = delta(shardB, shardA, "store_bytes_saved_total") / float64(o.writes)
	_, layers["service.write_ready_p50_ms"], _ = quartiles(o.writeReadyMs)
	if len(before) > 1 && before[1] != nil {
		rb, ra := before[1], after[1]
		reqs := delta(rb, ra, "router_requests_total")
		layers["router.hedge_ratio"] = ratio(delta(rb, ra, "router_hedges_total"), reqs)
		layers["router.retry_ratio"] = ratio(delta(rb, ra, "router_retries_total"), reqs)
	}
}

// checkLayers fails a traced run whose ledger misses a stage the workload
// runs, which would mean a span was renamed or no longer recorded.
func checkLayers(w *workload, layers map[string]float64) error {
	for _, name := range w.layers {
		if layers[name] <= 0 {
			return fmt.Errorf("%s: traced run recorded no %s", w.name, name)
		}
	}
	return nil
}
