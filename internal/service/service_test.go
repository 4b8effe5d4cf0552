package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/spider"
	"repro/internal/sqlexec"
)

func testServer(t *testing.T) (*httptest.Server, *spider.Corpus) {
	t.Helper()
	c := spider.GenerateSmall(13, 0.05)
	cfg := core.DefaultConfig()
	cfg.Consistency = 5
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), cfg)
	srv := httptest.NewServer(New(p, c).Handler())
	t.Cleanup(srv.Close)
	return srv, c
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestDatabasesEndpoint(t *testing.T) {
	srv, c := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/databases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dbs []databaseInfo
	if err := json.NewDecoder(resp.Body).Decode(&dbs); err != nil {
		t.Fatal(err)
	}
	if len(dbs) != len(c.Dev.Databases) {
		t.Errorf("got %d databases, want %d", len(dbs), len(c.Dev.Databases))
	}
	if len(dbs[0].Tables) == 0 {
		t.Error("no tables listed")
	}
}

func TestTranslateTask(t *testing.T) {
	srv, c := testServer(t)
	id := 0
	var out TranslateResponse
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{TaskID: &id}, &out)
	if out.SQL == "" || out.Gold != c.Dev.Examples[0].GoldSQL {
		t.Errorf("bad translation response: %+v", out)
	}
	if out.ExactMatch == nil || out.ExecMatch == nil {
		t.Error("match flags missing")
	}
}

func TestTranslateFreeForm(t *testing.T) {
	srv, c := testServer(t)
	var out TranslateResponse
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{
		Database: c.Dev.Databases[0].Name,
		Question: "How many rows are there?",
	}, &out)
	if len(out.Skeletons) == 0 || len(out.PrunedTables) == 0 {
		t.Errorf("retrieval artifacts missing: %+v", out)
	}
}

// TestFreeFormRetrievalUnderShippedConfig pins the free-form artifacts
// under the shipped configuration to what the paper's pruning
// configuration and a top-3 prediction give: the pipeline's own τp, τn,
// Steiner switch and TopK equal them there, so serving the pipeline's
// front half changed no response.
func TestFreeFormRetrievalUnderShippedConfig(t *testing.T) {
	c := spider.GenerateSmall(13, 0.05)
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	srv := httptest.NewServer(New(p, c).Handler())
	t.Cleanup(srv.Close)
	paper := classifier.PruneConfig{TauP: 0.5, TauN: 5, UseSteiner: true, TopK1: 4, TopK2: 5}
	for _, e := range c.Dev.Examples[:min(40, len(c.Dev.Examples))] {
		for _, q := range []string{e.NL, "How many rows are there?"} {
			var out TranslateResponse
			postJSON(t, srv.URL+"/v1/translate", TranslateRequest{Database: e.DB.Name, Question: q}, &out)
			want := TranslateResponse{PrunedTables: classifier.Prune(p.Classifier(), q, e.DB, paper).KeptTables}
			for _, pr := range p.Predictor().Predict(q, 3) {
				want.Skeletons = append(want.Skeletons, pr.Skeleton())
			}
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("%q on %s: got %+v, want %+v", q, e.DB.Name, out, want)
			}
		}
	}
}

func TestTranslateErrors(t *testing.T) {
	srv, _ := testServer(t)
	bad := postJSON(t, srv.URL+"/v1/translate", TranslateRequest{}, nil)
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request: status %d", bad.StatusCode)
	}
	id := 999999
	missing := postJSON(t, srv.URL+"/v1/translate", TranslateRequest{TaskID: &id}, nil)
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("out-of-range task: status %d", missing.StatusCode)
	}
}

func TestExecuteEndpoint(t *testing.T) {
	srv, c := testServer(t)
	db := c.Dev.Databases[0]
	var out ExecuteResponse
	postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{
		Database: db.Name,
		SQL:      "SELECT COUNT(*) FROM " + db.Tables[0].Name,
	}, &out)
	if out.Error != "" || len(out.Rows) != 1 {
		t.Errorf("execute failed: %+v", out)
	}
	// SQL errors are reported in-band.
	postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Database: db.Name, SQL: "SELECT x FROM nope"}, &out)
	if out.Error == "" {
		t.Error("expected in-band SQL error")
	}
}

func TestMethodGuards(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/translate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/translate: %d", resp.StatusCode)
	}
}

func cachedTestServer(t *testing.T) (*httptest.Server, *spider.Corpus, *llm.Cache) {
	t.Helper()
	c := spider.GenerateSmall(13, 0.05)
	cfg := core.DefaultConfig()
	cfg.Consistency = 5
	cache := llm.NewCache(llm.NewSim(llm.ChatGPT), 1024)
	p := core.New(c.Train.Examples, cache, cfg)
	s := New(p, c, WithWorkers(4))
	cache.Instrument(s.Registry(), "llm")
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, c, cache
}

func TestBatchEndpoint(t *testing.T) {
	srv, c, _ := cachedTestServer(t)
	ids := []int{0, 1, 2, 3, 4, 5}
	var out BatchResponse
	postJSON(t, srv.URL+"/v1/batch", BatchRequest{TaskIDs: ids, Workers: 3}, &out)
	if len(out.Results) != len(ids) || out.Completed != len(ids) {
		t.Fatalf("bad batch response: %+v", out)
	}
	if out.Workers != 3 {
		t.Errorf("workers override not honored: %d", out.Workers)
	}
	for i, item := range out.Results {
		if item.TaskID != ids[i] {
			t.Errorf("result %d out of order: task %d", i, item.TaskID)
		}
		if item.SQL == "" || item.Gold != c.Dev.Examples[ids[i]].GoldSQL {
			t.Errorf("result %d incomplete: %+v", i, item)
		}
	}
	if out.InputTokens == 0 || out.DemosUsed == 0 {
		t.Errorf("aggregate accounting missing: %+v", out)
	}

	// A batch must agree with the single-task endpoint, task by task.
	id := ids[2]
	var single TranslateResponse
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{TaskID: &id}, &single)
	if single.SQL != out.Results[2].SQL {
		t.Errorf("batch SQL %q != single SQL %q", out.Results[2].SQL, single.SQL)
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	srv, _, _ := cachedTestServer(t)
	empty := postJSON(t, srv.URL+"/v1/batch", BatchRequest{}, nil)
	if empty.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", empty.StatusCode)
	}
	oob := postJSON(t, srv.URL+"/v1/batch", BatchRequest{TaskIDs: []int{999999}}, nil)
	if oob.StatusCode != http.StatusNotFound {
		t.Errorf("out-of-range batch: status %d", oob.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _, _ := cachedTestServer(t)
	// Translate the same task twice: the second run's self-consistency call
	// must hit the cache.
	postJSON(t, srv.URL+"/v1/batch", BatchRequest{TaskIDs: []int{0, 1}}, nil)
	postJSON(t, srv.URL+"/v1/batch", BatchRequest{TaskIDs: []int{0, 1}}, nil)
	samples, body := scrape(t, srv.URL)
	hits, hasHits := samples[`llm_cache_hits_total{cache="llm"}`]
	misses := samples[`llm_cache_misses_total{cache="llm"}`]
	if !hasHits {
		t.Fatalf("instrumented cache missing from the exposition:\n%s", body)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("expected hits and misses after repeated batch: hits=%g misses=%g", hits, misses)
	}
}

// TestStatsPlanCacheCounters: repeated /execute of the same SQL must raise
// the shared plan cache's hit counter, and the counters must surface on
// /v1/metrics. Deltas are asserted because sqlexec.Shared is process-wide.
func TestStatsPlanCacheCounters(t *testing.T) {
	srv, c := testServer(t)
	before := sqlexec.Shared.Stats()
	dbName := c.Dev.Databases[0].Name
	table := c.Dev.Databases[0].Tables[0].Name
	req := ExecuteRequest{Database: dbName, SQL: "SELECT COUNT(*) FROM " + table}
	var out ExecuteResponse
	postJSON(t, srv.URL+"/v1/execute", req, &out)
	postJSON(t, srv.URL+"/v1/execute", req, &out)
	if out.Error != "" {
		t.Fatalf("execute error: %s", out.Error)
	}
	samples, _ := scrape(t, srv.URL)
	hits := samples[`plan_cache_hits_total{cache="shared"}`]
	misses := samples[`plan_cache_misses_total{cache="shared"}`]
	// The second identical /execute is necessarily a hit (the first may
	// also hit: the shared cache spans the whole process).
	if hits < float64(before.Hits+1) {
		t.Errorf("second /execute should hit the plan cache: before %+v after hits=%g", before, hits)
	}
	if hits+misses < float64(before.Hits+before.Misses+2) {
		t.Errorf("both /execute calls should be counted: before %+v after hits=%g misses=%g", before, hits, misses)
	}
	if samples[`plan_cache_capacity{cache="shared"}`] <= 0 {
		t.Error("plan cache capacity missing from the exposition")
	}
}

// TestMetricsWithoutCache: /v1/metrics is the only counter surface — the
// retired JSON stats route answers 404 — and a server whose caller
// instruments no LLM cache exports no llm_cache_* series.
func TestMetricsWithoutCache(t *testing.T) {
	srv, _ := testServer(t)
	const retired = "/v1/stats"
	resp, err := http.Get(srv.URL + retired)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET %s = %d, want 404", retired, resp.StatusCode)
	}
	samples, body := scrape(t, srv.URL)
	for key := range samples {
		if strings.HasPrefix(key, "llm_cache_") {
			t.Errorf("uninstrumented cache exported %s:\n%s", key, body)
		}
	}
}

// TestMalformedJSONBodies: every POST endpoint must reject syntactically
// invalid JSON with 400, not hang or 500.
func TestMalformedJSONBodies(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/v1/translate", "/v1/execute", "/v1/batch"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with malformed body: %d", path, resp.StatusCode)
		}
	}
}

// TestUnknownDatabaseNames: both database-addressed endpoints 404 on names
// outside the corpus.
func TestUnknownDatabaseNames(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/translate", TranslateRequest{Database: "no_such_db", Question: "how many?"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("translate unknown db: %d", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Database: "no_such_db", SQL: "SELECT 1 FROM t"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("execute unknown db: %d", resp.StatusCode)
	}
}

// TestMethodNotAllowedEverywhere sweeps the wrong verb across the route
// table.
func TestMethodNotAllowedEverywhere(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct{ method, path string }{
		{http.MethodPost, "/v1/databases"},
		{http.MethodGet, "/v1/translate"},
		{http.MethodGet, "/v1/execute"},
		{http.MethodGet, "/v1/batch"},
		{http.MethodPost, "/v1/metrics"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
}

// TestBatchOversized: a batch beyond the cap is rejected with 413 before any
// translation work starts. IDs out of range make the at-cap batch cheap: it
// passes the size check and fails the lookup with 404.
func TestBatchOversized(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/batch", BatchRequest{TaskIDs: outOfRangeIDs(maxBatch + 1)}, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d, want 413", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/batch", BatchRequest{TaskIDs: outOfRangeIDs(maxBatch)}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("at-cap batch: %d, want 404 from the task lookup", resp.StatusCode)
	}
}

// outOfRangeIDs returns n task IDs no corpus holds.
func outOfRangeIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 999999
	}
	return ids
}

// TestServerKeepsOnlyTheDevSplit: the server holds the dev split alone, so
// once the caller drops the corpus, its other splits (the training examples
// the pipeline was built from, DK, Syn and Realistic) are collected.
func TestServerKeepsOnlyTheDevSplit(t *testing.T) {
	c := spider.GenerateSmall(13, 0.05)
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), core.DefaultConfig())
	train, example, dk := weak.Make(c.Train), weak.Make(c.Train.Examples[0]), weak.Make(c.DK)
	s := New(p, c)
	c = nil
	runtime.GC()
	if train.Value() != nil || example.Value() != nil || dk.Value() != nil {
		t.Error("the server keeps a split it does not serve")
	}
	runtime.KeepAlive(s)
}

// TestConcurrentGradesMatchReference: batches and single translations of
// the same dev tasks, sent at once, build each task's gold once between
// them and grade every answer as the reference metrics do.
func TestConcurrentGradesMatchReference(t *testing.T) {
	srv, c := testServer(t)
	dev := c.Dev.Examples
	ids := make([]int, len(dev))
	for i := range ids {
		ids[i] = i
	}
	post := func(path string, body, out any) bool {
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return false
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s: %v", path, err)
			return false
		}
		return true
	}
	check := func(id int, sql string, em, ex bool) {
		e := dev[id]
		if em != eval.ExactSetMatchSQL(sql, e.GoldSQL) || ex != eval.ExecutionMatch(e.DB, sql, e.GoldSQL) {
			t.Errorf("task %d: graded (%v, %v), not as the reference grades %q", id, em, ex, sql)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			var out BatchResponse
			if post("/v1/batch", BatchRequest{TaskIDs: ids, Workers: 2}, &out) {
				for _, item := range out.Results {
					check(item.TaskID, item.SQL, item.ExactMatch, item.ExecMatch)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range ids {
				id := ids[len(ids)-1-i]
				var out TranslateResponse
				if post("/v1/translate", TranslateRequest{TaskID: &id}, &out) {
					check(id, out.SQL, *out.ExactMatch, *out.ExecMatch)
				}
			}
		}()
	}
	wg.Wait()
}
