package service

// Sharded-topology surface of the service layer: X-NL2SQL-Shard response
// attribution and the POST /v1/databases/{name}/adopt hand-off endpoint.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/store"
)

// sharedShardServer builds a catalog-enabled server over a shared-mode
// store instance in dir.
func sharedShardServer(t *testing.T, dir, instance string) (*httptest.Server, *Server) {
	t.Helper()
	c := tenantCorpus()
	pcfg := core.DefaultConfig()
	pcfg.Consistency = 5
	st, err := store.Open(dir, store.Options{Instance: instance})
	if err != nil {
		t.Fatal(err)
	}
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), pcfg)
	cat, err := catalog.New(catalog.Config{Client: llm.NewSim(llm.ChatGPT), Base: p, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, c, WithCatalog(cat), WithShardID(instance))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		cat.Close(ctx)
		st.Close()
	})
	return srv, s
}

func TestShardHeaderAttribution(t *testing.T) {
	srv, _ := sharedShardServer(t, t.TempDir(), "shard7")
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(ShardHeader); got != "shard7" {
		t.Errorf("%s = %q, want shard7", ShardHeader, got)
	}

	// A server without a shard identity stays header-free: the router
	// detects this and substitutes the proxy target.
	plain, _ := catalogTestServer(t)
	resp2, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(ShardHeader); got != "" {
		t.Errorf("unsharded server sent %s = %q", ShardHeader, got)
	}
}

// TestAdoptEndpoint drives the hand-off over HTTP: shard0 trains a tenant,
// shard1 404s on it until adopt, then serves it ready with attribution.
func TestAdoptEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv0, _ := sharedShardServer(t, dir, "shard0")
	resp := doJSON(t, http.MethodPost, srv0.URL+"/v1/databases", petshopRegistration("pets"), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	waitTenantReady(t, srv0.URL, "pets")

	srv1, _ := sharedShardServer(t, dir, "shard1")
	if r := doJSON(t, http.MethodGet, srv1.URL+"/v1/databases/pets", nil, nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-adopt GET on shard1 = %d, want 404", r.StatusCode)
	}

	var st DatabaseStatusResponse
	r := doJSON(t, http.MethodPost, srv1.URL+"/v1/databases/pets/adopt", nil, &st)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("adopt status %d", r.StatusCode)
	}
	if st.State != "ready" {
		t.Fatalf("adopted state = %s, want ready (models travel with the snapshot)", st.State)
	}
	if got := r.Header.Get(ShardHeader); got != "shard1" {
		t.Errorf("adopt response %s = %q, want shard1", ShardHeader, got)
	}

	// The adopted tenant serves graded translations on shard1.
	var tr TranslateResponse
	r = doJSON(t, http.MethodPost, srv1.URL+"/v1/translate",
		TranslateRequest{Database: "pets", Question: "What are the names of pets owned by Ada?"}, &tr)
	if r.StatusCode != http.StatusOK || tr.SQL == "" {
		t.Fatalf("translate on adopting shard: status %d, sql %q", r.StatusCode, tr.SQL)
	}

	// Unknown tenants still 404 — adopt invents nothing.
	if r := doJSON(t, http.MethodPost, srv1.URL+"/v1/databases/ghost/adopt", nil, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("adopt of unknown tenant = %d, want 404", r.StatusCode)
	}
}
