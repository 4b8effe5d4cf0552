package router

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/internal/trace"
)

// handleTraceGet assembles the cross-process tree for one trace ID: the
// router's own spans plus whatever every healthy shard captured under the
// same ID (shard spans carry their own service name, so the merged tree
// stays attributable). Shards that are down, never sampled the trace, or
// answer garbage are simply absent from the merge.
func (rt *Router) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id, ok := trace.ParseTraceID(r.PathValue("id"))
	if !ok {
		http.Error(w, "malformed trace id", http.StatusBadRequest)
		return
	}
	merged, found := rt.tracer.Trace(id)
	shards := rt.tab.Load().ring.Shards()
	remote := make([]*trace.TraceJSON, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
				"http://"+addr+"/v1/traces/"+id.String(), nil)
			if err != nil {
				return
			}
			resp, err := rt.probeClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return
			}
			var tj trace.TraceJSON
			if json.NewDecoder(resp.Body).Decode(&tj) == nil {
				remote[i] = &tj
			}
		}(i, s)
	}
	wg.Wait()
	for _, tj := range remote {
		if tj == nil {
			continue
		}
		if !found {
			// The router never sampled this ID (client went to a shard
			// directly, or the router's ring churned it out): the first
			// shard that has it seeds the trace-level fields.
			merged, found = *tj, true
			continue
		}
		merged.Spans = append(merged.Spans, tj.Spans...)
		merged.Error = merged.Error || tj.Error
	}
	if !found {
		http.Error(w, "unknown trace", http.StatusNotFound)
		return
	}
	sort.SliceStable(merged.Spans, func(i, j int) bool {
		return merged.Spans[i].Start.Before(merged.Spans[j].Start)
	})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(merged)
}
