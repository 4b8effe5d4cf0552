// Custom-database: bring your own schema over the multi-tenant HTTP API —
// the integration path for a real deployment. The program starts an
// in-process server, then acts as a pure HTTP client: it (1) registers a
// hand-built bookstore database with demonstrations via POST /v1/databases,
// (2) observes the warming→ready transition as the tenant's own models
// train asynchronously, (3) gets tenant-scoped translations and SQL
// execution, (4) re-registers a revised schema and watches the version
// bump, and (5) reads the per-tenant series off /v1/metrics.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/spider"
)

// registration is the POST /v1/databases body: the bookstore schema plus a
// demonstration pool annotated with gold SQL — on a real deployment these
// would be your warehouse's annotated queries.
func registration() service.RegisterRequest {
	return service.RegisterRequest{
		Name: "bookstore",
		Tables: []service.TableSpec{
			{
				Name: "publisher", PrimaryKey: "id",
				Columns: []service.ColumnSpec{
					{Name: "id", Type: "number"},
					{Name: "publisher_name", NLName: "publisher name"},
					{Name: "city"},
				},
				Rows: [][]any{
					{1, "Norton", "Springfield"},
					{2, "Viking", "Riverton"},
				},
			},
			{
				Name: "book", PrimaryKey: "id",
				Columns: []service.ColumnSpec{
					{Name: "id", Type: "number"},
					{Name: "publisher_id", Type: "number", NLName: "publisher id"},
					{Name: "title"},
					{Name: "price", Type: "number"},
				},
				Rows: [][]any{
					{1, 1, "Gopher Tales", 12},
					{2, 2, "SQL at Dusk", 30},
					{3, 1, "Steiner Trees", 25},
				},
			},
		},
		ForeignKeys: []service.ForeignKeySpec{
			{FromTable: "book", FromColumn: "publisher_id", ToTable: "publisher", ToColumn: "id"},
		},
		Demos: []catalog.Demo{
			{NL: "What are the titles of books published by a publisher whose city is Springfield?",
				SQL: "SELECT T1.title FROM book AS T1 JOIN publisher AS T2 ON T1.publisher_id = T2.id WHERE T2.city = 'Springfield'"},
			{NL: "How many books does each publisher have?",
				SQL: "SELECT T2.publisher_name, COUNT(*) FROM book AS T1 JOIN publisher AS T2 ON T1.publisher_id = T2.id GROUP BY T2.publisher_name"},
			{NL: "List all book titles ordered by price.",
				SQL: "SELECT title FROM book ORDER BY price"},
			{NL: "What is the most expensive book?",
				SQL: "SELECT title FROM book ORDER BY price DESC LIMIT 1"},
		},
	}
}

func main() {
	// Server side: a small benchmark corpus trains the default pipeline,
	// whose models also serve registered databases while they warm. A real
	// deployment runs cmd/nl2sql-server instead; everything below the ----
	// line is plain HTTP and works identically against it.
	corpus := spider.GenerateSmall(9, 0.06)
	client := llm.NewSim(llm.ChatGPT)
	pipeline := core.New(corpus.Train.Examples, client, core.DefaultConfig())
	cat, err := catalog.New(catalog.Config{Client: client, Base: pipeline})
	if err != nil {
		log.Fatal(err)
	}
	svc := service.New(pipeline, corpus, service.WithCatalog(cat))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// ---- client side: the HTTP integration path ----

	// 1. Register the database. The response is immediate: the tenant
	// serves on the server pipeline's models ("warming") while its own
	// train.
	var status service.DatabaseStatusResponse
	post(ts.URL+"/v1/databases", registration(), &status)
	fmt.Printf("registered %q: state=%s version=%d tables=%v\n",
		status.Name, status.State, status.Version, status.Tables)

	// 2. Warming tenants already translate; poll until the async model
	// build publishes the ready snapshot.
	for deadline := time.Now().Add(10 * time.Second); status.State != "ready"; {
		if time.Now().After(deadline) {
			log.Fatal("tenant never became ready")
		}
		time.Sleep(20 * time.Millisecond)
		get(ts.URL+"/v1/databases/bookstore", &status)
	}
	fmt.Printf("tenant ready: version=%d built at %s\n", status.Version, status.Built)

	// 3. Tenant-scoped translation: the pipeline prunes the bookstore
	// schema, selects demonstrations from the registered pool, and repairs
	// hallucinations against the bookstore database.
	var tr service.TranslateResponse
	post(ts.URL+"/v1/translate", map[string]string{
		"database": "bookstore",
		"question": "What are the titles of books published by a publisher whose city is Springfield?",
	}, &tr)
	fmt.Printf("translated (state=%s): %s\n  exec_match=%v demos_used=%d\n",
		tr.State, tr.SQL, *tr.ExecMatch, tr.DemosUsed)

	// 4. Execute SQL against the registered rows through the tenant's
	// prepared-statement cache.
	var ex service.ExecuteResponse
	post(ts.URL+"/v1/execute", map[string]string{
		"database": "bookstore",
		"sql":      "SELECT title, price FROM book ORDER BY price DESC",
	}, &ex)
	fmt.Printf("executed: columns=%v rows=%v\n", ex.Columns, ex.Rows)

	// 5. Re-register with a revised schema: the version bumps, plans for
	// the retired schema are invalidated, and in-flight requests keep the
	// old snapshot until they finish.
	rev := registration()
	rev.Tables[1].Columns = append(rev.Tables[1].Columns, service.ColumnSpec{Name: "year", Type: "number"})
	for i := range rev.Tables[1].Rows {
		rev.Tables[1].Rows[i] = append(rev.Tables[1].Rows[i], 2000+i)
	}
	put(ts.URL+"/v1/databases/bookstore", rev, &status)
	fmt.Printf("re-registered: state=%s version=%d\n", status.State, status.Version)

	// 6. Per-tenant observability: the tenant_* series on /v1/metrics,
	// labeled by tenant name. The mean translate latency is the latency sum
	// over the translation count.
	samples := scrape(ts.URL + "/v1/metrics")
	series := func(name string) float64 { return samples[name+`{tenant="bookstore"}`] }
	translations := series("tenant_translations_total")
	meanMs := 0.0
	if translations > 0 {
		meanMs = 1e3 * series("tenant_translate_seconds_total") / translations
	}
	fmt.Printf("metrics: tenant=bookstore translations=%g lookups=%g mean_translate=%.1fms ready=%g\n",
		translations, series("tenant_lookups_total"), meanMs, series("tenant_ready"))
}

// scrape fetches a Prometheus text exposition and parses it into samples
// keyed by name{labels}.
func scrape(url string) map[string]float64 {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	samples, err := metrics.ParseExposition(body)
	if err != nil {
		log.Fatal(err)
	}
	return samples
}

func post(url string, body, out any) { send(http.MethodPost, url, body, out) }
func put(url string, body, out any)  { send(http.MethodPut, url, body, out) }

func send(method, url string, body, out any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	do(req, out)
}

func get(url string, out any) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Fatal(err)
	}
	do(req, out)
}

func do(req *http.Request, out any) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		log.Fatalf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, msg.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
