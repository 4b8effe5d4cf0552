package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/router"
	"repro/internal/spider"
	"repro/internal/trace"
)

// TestTraceListHandler drives the one GET /v1/traces handler on both tiers —
// a traced shard and a traced router in front of it. Each must answer
// {service, traces, exemplars}, reject a malformed filter with 400, and every
// exemplar it names must resolve on its own /v1/traces/{id}.
func TestTraceListHandler(t *testing.T) {
	c := spider.GenerateSmall(13, 0.05)
	cfg := core.DefaultConfig()
	cfg.Consistency = 3
	p := core.New(c.Train.Examples, llm.NewSim(llm.ChatGPT), cfg)
	shardTracer := trace.New(trace.Config{Service: "shard:test", Sample: 1})
	shard := httptest.NewServer(New(p, c, WithTracer(shardTracer)).Handler())
	t.Cleanup(shard.Close)

	rt, err := router.New(router.Config{
		Shards:        []string{strings.TrimPrefix(shard.URL, "http://")},
		ProbeInterval: -1,
		HedgeAfter:    -1,
		Tracer:        trace.New(trace.Config{Service: "router", Sample: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// Traffic through the router lands on both tiers' rings: three routes,
	// one of them answering 404.
	for _, body := range []string{`{"task_id": 0}`, `{"task_id": 1}`, `{"task_id": 999999}`} {
		resp, err := http.Post(front.URL+"/v1/translate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(front.URL + "/v1/databases"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	for _, tc := range []struct{ tier, base, service string }{
		{"shard", shard.URL, "shard:test"},
		{"router", front.URL, "router"},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			resp, err := http.Get(tc.base + "/v1/traces")
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/traces = %d: %s", resp.StatusCode, raw.String())
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw.Bytes(), &fields); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "exemplars,service,traces" {
				t.Errorf("list keys = %v, want exemplars, service, traces", keys)
			}
			var list trace.ListResponse
			if err := json.Unmarshal(raw.Bytes(), &list); err != nil {
				t.Fatal(err)
			}
			if list.Service != tc.service || len(list.Traces) == 0 || len(list.Exemplars) == 0 {
				t.Fatalf("list = %s", raw.String())
			}
			for route, ex := range list.Exemplars {
				r, err := http.Get(tc.base + "/v1/traces/" + ex.TraceID)
				if err != nil {
					t.Fatal(err)
				}
				var tj trace.TraceJSON
				err = json.NewDecoder(r.Body).Decode(&tj)
				r.Body.Close()
				if r.StatusCode != http.StatusOK || err != nil || tj.TraceID != ex.TraceID {
					t.Errorf("exemplar for %s (%s) does not resolve: status %d, %v", route, ex.TraceID, r.StatusCode, err)
				}
			}

			bad, err := http.Get(tc.base + "/v1/traces?min_ms=soon")
			if err != nil {
				t.Fatal(err)
			}
			bad.Body.Close()
			if bad.StatusCode != http.StatusBadRequest {
				t.Errorf("malformed filter = %d, want 400", bad.StatusCode)
			}
		})
	}
}
