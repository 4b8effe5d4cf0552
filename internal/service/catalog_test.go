package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/spider"
)

// Shared corpus: generated once, read-only afterwards.
var (
	svcCorpusOnce sync.Once
	svcCorpus     *spider.Corpus
)

func tenantCorpus() *spider.Corpus {
	svcCorpusOnce.Do(func() { svcCorpus = spider.GenerateSmall(13, 0.05) })
	return svcCorpus
}

// catalogTestServer builds a server with the multi-tenant catalog enabled
// (plus any extra options, e.g. jobs).
func catalogTestServer(t *testing.T, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	c := tenantCorpus()
	pcfg := core.DefaultConfig()
	pcfg.Consistency = 5
	client := llm.NewSim(llm.ChatGPT)
	p := core.New(c.Train.Examples, client, pcfg)
	cat, err := catalog.New(catalog.Config{Client: client, Base: p})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, c, append([]Option{WithCatalog(cat)}, opts...)...)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		cat.Close(ctx)
	})
	return srv, s
}

// petshopRegistration is the wire-format registration fixture.
func petshopRegistration(name string) RegisterRequest {
	return RegisterRequest{
		Name: name,
		Tables: []TableSpec{
			{
				Name: "owner", PrimaryKey: "id",
				Columns: []ColumnSpec{
					{Name: "id", Type: "number"},
					{Name: "owner_name"},
				},
				Rows: [][]any{{1.0, "Ada"}, {2.0, "Brin"}},
			},
			{
				Name: "pet", PrimaryKey: "id",
				Columns: []ColumnSpec{
					{Name: "id", Type: "number"},
					{Name: "owner_id", Type: "number"},
					{Name: "pet_name"},
					{Name: "weight", Type: "number"},
				},
				Rows: [][]any{
					{1.0, 1.0, "Rex", 12.0},
					{2.0, 1.0, "Mia", 4.0},
					{3.0, 2.0, "Tor", 30.0},
				},
			},
		},
		ForeignKeys: []ForeignKeySpec{
			{FromTable: "pet", FromColumn: "owner_id", ToTable: "owner", ToColumn: "id"},
		},
		Demos: []catalog.Demo{
			{NL: "What are the names of pets owned by Ada?",
				SQL: "SELECT T1.pet_name FROM pet AS T1 JOIN owner AS T2 ON T1.owner_id = T2.id WHERE T2.owner_name = 'Ada'"},
			{NL: "How many pets does each owner have?",
				SQL: "SELECT T2.owner_name, COUNT(*) FROM pet AS T1 JOIN owner AS T2 ON T1.owner_id = T2.id GROUP BY T2.owner_name"},
			{NL: "List all pet names ordered by weight.",
				SQL: "SELECT pet_name FROM pet ORDER BY weight"},
		},
	}
}

func waitTenantReady(t *testing.T, base, name string) DatabaseStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st DatabaseStatusResponse
		resp := doJSON(t, http.MethodGet, base+"/v1/databases/"+name, nil, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant poll status %d", resp.StatusCode)
		}
		if st.State == "ready" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("tenant %s never became ready", name)
	return DatabaseStatusResponse{}
}

func TestTenantRegisterTranslateLifecycle(t *testing.T) {
	srv, _ := catalogTestServer(t)

	var created DatabaseStatusResponse
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/databases", petshopRegistration("petshop"), &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	if created.State != "warming" || created.Version != 1 {
		t.Fatalf("fresh tenant: %+v", created)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/databases/petshop" {
		t.Errorf("Location = %q", loc)
	}

	// Warming-state path: the tenant translates before its build lands.
	var warm TranslateResponse
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{
		Database: "petshop",
		Question: "What are the names of pets owned by Ada?",
	}, &warm)
	if warm.SQL == "" || warm.Database != "petshop" {
		t.Fatalf("warming translate: %+v", warm)
	}
	if warm.State != "warming" && warm.State != "ready" {
		t.Fatalf("unexpected state %q", warm.State)
	}
	if warm.ExecMatch == nil {
		t.Fatal("tenant translate missing exec-match grading")
	}

	ready := waitTenantReady(t, srv.URL, "petshop")
	if ready.Version != 1 || ready.Built == "" {
		t.Errorf("ready tenant: %+v", ready)
	}

	var tr TranslateResponse
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{
		Database: "petshop",
		Question: "List all pet names ordered by weight.",
	}, &tr)
	if tr.State != "ready" || tr.SQL == "" || tr.Gold == "" {
		t.Fatalf("ready translate: %+v", tr)
	}

	// The unmatched-question path returns artifacts plus a note, not SQL.
	var artifacts TranslateResponse
	postJSON(t, srv.URL+"/v1/translate", TranslateRequest{
		Database: "petshop",
		Question: "what is the meaning of all this",
	}, &artifacts)
	if artifacts.SQL != "" || artifacts.Note == "" {
		t.Fatalf("unmatched question: %+v", artifacts)
	}

	// Per-tenant series surface on /v1/metrics.
	samples, body := scrape(t, srv.URL)
	if got := samples["catalog_tenants"]; got != 1 {
		t.Fatalf("catalog_tenants = %g, want 1\n%s", got, body)
	}
	readyGauge := samples[`tenant_ready{tenant="petshop"}`]
	translations := samples[`tenant_translations_total{tenant="petshop"}`]
	lookups := samples[`tenant_lookups_total{tenant="petshop"}`]
	if readyGauge != 1 || translations < 2 || lookups < 2 {
		t.Errorf("tenant series: ready=%g translations=%g lookups=%g", readyGauge, translations, lookups)
	}

	// The tenant also shows up in the database listing.
	var dbs []databaseInfo
	if resp := doJSON(t, http.MethodGet, srv.URL+"/v1/databases", nil, &dbs); resp.StatusCode != http.StatusOK {
		t.Fatalf("databases status %d", resp.StatusCode)
	}
	var found bool
	for _, db := range dbs {
		if db.Name == "petshop" && db.Source == "tenant" {
			found = true
		}
	}
	if !found {
		t.Errorf("tenant missing from listing: %+v", dbs)
	}
}

func TestTenantDuplicateRegister409(t *testing.T) {
	srv, _ := catalogTestServer(t)
	if resp := doJSON(t, http.MethodPost, srv.URL+"/v1/databases", petshopRegistration("twice"), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first register status %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodPost, srv.URL+"/v1/databases", petshopRegistration("twice"), nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register status %d, want 409", resp.StatusCode)
	}
}

func TestTenantUnknown404(t *testing.T) {
	srv, _ := catalogTestServer(t)
	if resp := doJSON(t, http.MethodGet, srv.URL+"/v1/databases/ghost", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown tenant: %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodDelete, srv.URL+"/v1/databases/ghost", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown tenant: %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/translate", TranslateRequest{Database: "ghost", Question: "hi"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("translate unknown database: %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/batch", BatchRequest{Database: "ghost", Questions: []string{"hi"}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("batch unknown database: %d", resp.StatusCode)
	}
}

func TestTenantReregisterAndDelete(t *testing.T) {
	srv, _ := catalogTestServer(t)
	doJSON(t, http.MethodPost, srv.URL+"/v1/databases", petshopRegistration("cycle"), nil)

	rev := petshopRegistration("cycle")
	rev.Tables[1].Columns = append(rev.Tables[1].Columns, ColumnSpec{Name: "breed"})
	for i := range rev.Tables[1].Rows {
		rev.Tables[1].Rows[i] = append(rev.Tables[1].Rows[i], "mix")
	}
	var updated DatabaseStatusResponse
	if resp := doJSON(t, http.MethodPut, srv.URL+"/v1/databases/cycle", rev, &updated); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	if updated.Version != 2 || updated.State != "warming" {
		t.Fatalf("re-register: %+v", updated)
	}

	// Name mismatch between path and body is rejected.
	bad := petshopRegistration("other")
	if resp := doJSON(t, http.MethodPut, srv.URL+"/v1/databases/cycle", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched PUT status %d", resp.StatusCode)
	}

	if resp := doJSON(t, http.MethodDelete, srv.URL+"/v1/databases/cycle", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, srv.URL+"/v1/databases/cycle", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted tenant still resolves: %d", resp.StatusCode)
	}
}

func TestTenantRegisterValidation400(t *testing.T) {
	srv, _ := catalogTestServer(t)
	cases := map[string]RegisterRequest{}
	noDemos := petshopRegistration("bad1")
	noDemos.Demos = nil
	cases["no demos"] = noDemos
	badType := petshopRegistration("bad2")
	badType.Tables[0].Columns[0].Type = "blob"
	cases["bad column type"] = badType
	badRow := petshopRegistration("bad3")
	badRow.Tables[0].Rows = append(badRow.Tables[0].Rows, []any{1.0})
	cases["row arity"] = badRow
	badCell := petshopRegistration("bad4")
	badCell.Tables[0].Rows[0][0] = []any{"nested"}
	cases["bad cell"] = badCell
	strCell := petshopRegistration("bad6")
	strCell.Tables[0].Rows[0][0] = "1" // string cell in a number column
	cases["mistyped string cell"] = strCell
	numCell := petshopRegistration("bad7")
	numCell.Tables[0].Rows[0][1] = 7.0 // numeric cell in a text column
	cases["mistyped numeric cell"] = numCell
	slashName := petshopRegistration("a/b")
	cases["unroutable name"] = slashName
	badSQL := petshopRegistration("bad5")
	badSQL.Demos[0].SQL = "DROP TABLE pet"
	cases["bad demo sql"] = badSQL
	for name, reg := range cases {
		if resp := doJSON(t, http.MethodPost, srv.URL+"/v1/databases", reg, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestTenantExecute(t *testing.T) {
	srv, _ := catalogTestServer(t)
	doJSON(t, http.MethodPost, srv.URL+"/v1/databases", petshopRegistration("exec"), nil)
	var out ExecuteResponse
	postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{
		Database: "exec",
		SQL:      "SELECT pet_name FROM pet ORDER BY weight DESC LIMIT 1",
	}, &out)
	if out.Error != "" || len(out.Rows) != 1 || out.Rows[0][0] != "Tor" {
		t.Fatalf("tenant execute: %+v", out)
	}
	// SQL errors stay in-band.
	postJSON(t, srv.URL+"/v1/execute", ExecuteRequest{Database: "exec", SQL: "SELECT ghost FROM pet"}, &out)
	if out.Error == "" {
		t.Error("expected in-band SQL error")
	}
}

func TestTenantBatch(t *testing.T) {
	srv, _ := catalogTestServer(t)
	doJSON(t, http.MethodPost, srv.URL+"/v1/databases", petshopRegistration("batch"), nil)
	var out BatchResponse
	resp := postJSON(t, srv.URL+"/v1/batch", BatchRequest{
		Database: "batch",
		Questions: []string{
			"What are the names of pets owned by Ada?",
			"How many pets does each owner have?",
		},
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if out.Completed != 2 || len(out.Results) != 2 {
		t.Fatalf("batch response: %+v", out)
	}
	for i, item := range out.Results {
		if item.TaskID != i || item.SQL == "" || item.Gold == "" {
			t.Errorf("item %d: %+v", i, item)
		}
	}
	// An unmatched question fails the whole batch up front.
	if resp := postJSON(t, srv.URL+"/v1/batch", BatchRequest{
		Database:  "batch",
		Questions: []string{"completely unrelated nonsense"},
	}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unmatched batch question: status %d", resp.StatusCode)
	}
	// Mixing forms is rejected.
	if resp := postJSON(t, srv.URL+"/v1/batch", BatchRequest{
		Database: "batch", Questions: []string{"q"}, TaskIDs: []int{0},
	}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mixed batch forms: status %d", resp.StatusCode)
	}
}

func TestTenantJobs(t *testing.T) {
	srv, _ := catalogTestServer(t, WithJobs(jobs.Config{Runners: 1, Queue: 4}))
	doJSON(t, http.MethodPost, srv.URL+"/v1/databases", petshopRegistration("async"), nil)
	var created JobStatusResponse
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{
		Database:  "async",
		Questions: []string{"List all pet names ordered by weight.", "How many pets does each owner have?"},
		Label:     "tenant-job",
	}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create status %d", resp.StatusCode)
	}
	st := pollJob(t, srv.URL, created.ID)
	if st.State != string(jobs.StateDone) || len(st.Results) != 2 {
		t.Fatalf("tenant job: %+v", st)
	}
	for i, item := range st.Results {
		if item.SQL == "" || item.Gold == "" || item.TaskID != i {
			t.Errorf("result %d: %+v", i, item)
		}
	}
}

// TestLegacyAliases pins the retirement of the unversioned aliases: the old
// paths answer 404, and the /v1 routes keep their method guards.
func TestLegacyAliases(t *testing.T) {
	srv, _ := catalogTestServer(t)
	// The POST bodies are not JSON objects, so a handler would answer 400:
	// a 404 can only come from the mux.
	for _, a := range []struct{ method, path string }{
		{http.MethodGet, "/databases"},
		{http.MethodPost, "/translate"},
		{http.MethodPost, "/execute"},
	} {
		if resp := doJSON(t, a.method, srv.URL+a.path, "not an object", nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", a.method, a.path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/translate", "/v1/execute"} {
		if resp := doJSON(t, http.MethodGet, srv.URL+path, nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	if resp := doJSON(t, http.MethodDelete, srv.URL+"/v1/databases", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/databases: status %d, want 405", resp.StatusCode)
	}
}

// TestCatalogDisabled pins behavior without WithCatalog: tenant routes 404
// or 405 and tenant-scoped requests fall through to the benchmark paths.
func TestCatalogDisabled(t *testing.T) {
	srv, _ := testServer(t)
	if resp := doJSON(t, http.MethodPost, srv.URL+"/v1/databases", petshopRegistration("x"), nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("register without catalog: status %d, want 405", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, srv.URL+"/v1/databases/x", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("tenant GET without catalog: status %d, want 404", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/translate", TranslateRequest{Database: "nope", Question: "q"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("translate unknown db without catalog: status %d", resp.StatusCode)
	}
}

// TestResultCacheEvictedWithJobs is the resCache-leak regression test:
// memoized job renderings must be dropped when the jobs GC deletes the job.
func TestResultCacheEvictedWithJobs(t *testing.T) {
	srv, s, _ := jobsTestServer(t, jobs.Config{Runners: 1, Queue: 4, TTL: time.Minute})
	var created JobStatusResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", JobCreateRequest{TaskIDs: []int{0, 1}}, &created)
	st := pollJob(t, srv.URL, created.ID)
	if st.State != string(jobs.StateDone) || len(st.Results) == 0 {
		t.Fatalf("job did not finish with results: %+v", st)
	}

	s.resMu.Lock()
	_, cached := s.resCache[created.ID]
	s.resMu.Unlock()
	if !cached {
		t.Fatal("poll did not memoize rendered results")
	}
	// A snapshot taken before the GC, as a handler mid-render would hold.
	stale, err := s.jobs.Get(created.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Advance the synthetic clock past the TTL: the GC deletes the job and
	// the evict hook must drop the memoized rendering with it.
	if n := s.jobs.GC(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("GC removed %d jobs, want 1", n)
	}
	s.resMu.Lock()
	_, cached = s.resCache[created.ID]
	leak := len(s.resCache)
	s.resMu.Unlock()
	if cached || leak != 0 {
		t.Fatalf("resCache leaked after job GC: cached=%v size=%d", cached, leak)
	}

	// TOCTOU half of the leak: a render working from a Status fetched
	// before the GC ran must not re-insert the entry afterwards.
	if items := s.renderedResults(stale); len(items) == 0 {
		t.Fatal("stale render returned no items")
	}
	s.resMu.Lock()
	leak = len(s.resCache)
	s.resMu.Unlock()
	if leak != 0 {
		t.Fatalf("stale render re-inserted %d orphaned resCache entries", leak)
	}
}
