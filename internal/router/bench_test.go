package router

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The router tier's gated benchmarks (BENCH_router.txt). BenchmarkRingLookup2
// is the routing hot path and must stay allocation-free: CI's benchdiff
// allocs gate pins it at zero. BenchmarkProxyRoundtrip measures one full
// client → router → shard hop against a loopback backend;
// BenchmarkDirectRoundtrip is the same call without the router, so the
// difference is the proxy overhead the tier adds per request.

// benchShards and benchKeys are the ring fixture of the lookup benchmarks.
var benchShards = []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080"}

func benchKeys() []string {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("tenant_db_%d", i)
	}
	return keys
}

func BenchmarkRingLookup2(b *testing.B) {
	ring := BuildRing(benchShards, DefaultVNodes)
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	var sink string
	for i := 0; i < b.N; i++ {
		sink, _ = ring.Lookup2(keys[i&255])
	}
	if sink == "" {
		b.Fatal("empty placement")
	}
}

func BenchmarkRingBuild(b *testing.B) {
	shards := shardNames(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildRing(shards, 160)
	}
}

func BenchmarkRoutingKeyPath(b *testing.B) {
	req := httptest.NewRequest(http.MethodPost, "http://router/v1/databases/concert_singer/sql", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if RoutingKey(req, nil) != "concert_singer" {
			b.Fatal("wrong key")
		}
	}
}

func BenchmarkRoutingKeyBodySniff(b *testing.B) {
	req := httptest.NewRequest(http.MethodPost, "http://router/v1/translate", nil)
	body := []byte(`{"database":"concert_singer","question":"How many singers are there?"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if RoutingKey(req, body) != "concert_singer" {
			b.Fatal("wrong key")
		}
	}
}

// benchBackend is a loopback shard answering every request with a small
// JSON body.
func benchBackend(b *testing.B) *httptest.Server {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"sql":"SELECT count(*) FROM singer"}`))
	}))
	b.Cleanup(backend.Close)
	return backend
}

// benchRoundtrip GETs base's tenant-info route b.N times.
func benchRoundtrip(b *testing.B, base string) {
	url := base + "/v1/databases/concert_singer"
	hc := &http.Client{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func BenchmarkProxyRoundtrip(b *testing.B) {
	backend := benchBackend(b)
	rt, err := New(Config{
		Shards:        []string{backend.Listener.Addr().String()},
		ProbeInterval: -1, // no background loop inside a benchmark
		HedgeAfter:    -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)
	benchRoundtrip(b, front.URL)
}

func BenchmarkDirectRoundtrip(b *testing.B) {
	benchRoundtrip(b, benchBackend(b).URL)
}
