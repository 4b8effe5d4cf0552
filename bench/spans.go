package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// Per-layer numbers come from the spans the servers record at each layer
// boundary: the pipeline stages, the LLM call, grading, catalog lookup, SQL
// execution and proxy attempts. Every request the benchmark sends carries a
// W3C traceparent minted here. In an untraced run it is unsampled, which
// tells every process not to record the request, so the end-to-end numbers
// carry no tracing cost while the servers keep their shipped flags. In a
// traced run each load request gets a sampled one; once the answer is in,
// its span tree is fetched from GET /v1/traces/{id} over the same
// connection (the router merges its shard's spans into its own tree) and
// added to the ledger.

type traceparentKey struct{}

// unsampled is the traceparent of every request that does not carry its
// own: a valid context with the sampled flag off.
var unsampled = trace.NewSpanContext(false).Header()

func traceparent(ctx context.Context) string {
	if v, ok := ctx.Value(traceparentKey{}).(string); ok {
		return v
	}
	return unsampled
}

// keepTraces span trees are written to bench/out/trace-<workload>.json; the
// ledger's sums cover every fetched tree.
const keepTraces = 2000

// routerService is the service name the router stamps on its spans.
const routerService = "router"

// ledger accumulates a traced run's span trees. A nil ledger is an untraced
// run: begin leaves the request unsampled and end and demos do nothing.
type ledger struct {
	mu    sync.Mutex
	kept  []trace.TraceJSON
	trees int
	// Summed by span name: self and total time in ms, and occurrences.
	self, total, count map[string]float64
	// attrs sums numeric and boolean (true is 1) attributes by "span.attr".
	attrs map[string]float64
	// serviceSelf is the self time of every service route's root span, and
	// serviceRoots their number.
	serviceSelf, serviceRoots float64
	// routerSelf is the self time of the router's spans.
	routerSelf float64
	// Demonstrations placed in prompts, from the answers, and translations.
	demosUsed, translations float64
}

func newLedger() *ledger {
	return &ledger{self: map[string]float64{}, total: map[string]float64{},
		count: map[string]float64{}, attrs: map[string]float64{}}
}

// begin returns the context for one load request and the span context it
// sends, whose ids end uses to find the request's tree.
func (l *ledger) begin(ctx context.Context) (context.Context, trace.SpanContext) {
	if l == nil {
		return ctx, trace.SpanContext{}
	}
	sc := trace.NewSpanContext(true)
	return context.WithValue(ctx, traceparentKey{}, sc.Header()), sc
}

// end fetches the request's span tree from base and adds it. A process
// files a trace when its root span finishes, which is just after the
// answer is written, so end polls until the tree is complete.
func (l *ledger) end(ctx context.Context, c *http.Client, base string, sc trace.SpanContext) error {
	if l == nil {
		return nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var tj trace.TraceJSON
		err := call(ctx, c, http.MethodGet, base+"/v1/traces/"+sc.TraceID.String(), nil, &tj)
		if err == nil {
			if err = complete(tj, sc.SpanID.String()); err == nil {
				l.add(tj)
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trace %s: %v", sc.TraceID, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// demos adds the demonstrations used by n answered translations.
func (l *ledger) demos(used, n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.demosUsed += float64(used)
	l.translations += float64(n)
	l.mu.Unlock()
}

// complete checks that a tree hangs together under the client span that
// sent the request: something is parented directly under it, every other
// span's parent is in the tree, and a service route's root is present (the
// router's tree holds it only once its shard's trace is filed).
func complete(tj trace.TraceJSON, client string) error {
	ids := map[string]bool{}
	for _, s := range tj.Spans {
		ids[s.SpanID] = true
	}
	top, route := false, false
	for _, s := range tj.Spans {
		switch {
		case s.ParentID == client:
			top = true
		case !ids[s.ParentID]:
			return fmt.Errorf("span %s has no parent in the tree yet", s.Name)
		}
		route = route || isRoute(s.Name)
	}
	if !top || !route {
		return errors.New("tree not filed yet")
	}
	return nil
}

// isRoute reports whether a span is a service's root, which is named after
// its route pattern ("POST /v1/translate").
func isRoute(name string) bool { return strings.Contains(name, " /") }

// add sums one tree into the ledger. A span's self time is its duration
// minus the part of its interval that its children cover; children that ran
// in parallel (a batch's items) are merged, so shared time counts once.
func (l *ledger) add(tj trace.TraceJSON) {
	index := make(map[string]int, len(tj.Spans))
	for i, s := range tj.Spans {
		index[s.SpanID] = i
	}
	children := make([][]trace.SpanJSON, len(tj.Spans))
	for _, s := range tj.Spans {
		if p, ok := index[s.ParentID]; ok {
			children[p] = append(children[p], s)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, s := range tj.Spans {
		self := s.DurationMs - covered(s, children[i])
		l.self[s.Name] += self
		l.total[s.Name] += s.DurationMs
		l.count[s.Name]++
		if isRoute(s.Name) {
			l.serviceSelf += self
			l.serviceRoots++
		}
		if s.Service == routerService {
			l.routerSelf += self
		}
		for k, v := range s.Attrs {
			switch v := v.(type) {
			case float64:
				l.attrs[s.Name+"."+k] += v
			case bool:
				l.attrs[s.Name+"."+k] += float64(b2i(v))
			}
		}
	}
	l.trees++
	if len(l.kept) < keepTraces {
		l.kept = append(l.kept, tj)
	}
}

// covered is the length in ms of the union of the children's intervals,
// clipped to the parent's.
func covered(parent trace.SpanJSON, children []trace.SpanJSON) float64 {
	type interval struct{ lo, hi float64 }
	var iv []interval
	for _, c := range children {
		lo := ms(c.Start.Sub(parent.Start))
		hi := min(lo+c.DurationMs, parent.DurationMs)
		lo = max(lo, 0)
		if hi > lo {
			iv = append(iv, interval{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var sum float64
	end := 0.0
	for _, x := range iv {
		if x.hi <= end {
			continue
		}
		sum += x.hi - max(x.lo, end)
		end = x.hi
	}
	return sum
}

// write saves the kept trees for offline inspection.
func (l *ledger) write(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Trees    int               `json:"trees"`
		Traces   []trace.TraceJSON `json:"traces"`
	}{workload, seed, l.trees, l.kept})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
