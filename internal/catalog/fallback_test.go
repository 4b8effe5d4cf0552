package catalog

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/llm"
	"repro/internal/spider"
	"repro/internal/trace"
)

// countingFallback returns an untrained fallback over a small corpus whose
// bootstrap function counts its calls.
func countingFallback(calls *atomic.Int64) (*Fallback, []*spider.Example) {
	train := spider.GenerateSmall(7, 0.03).Train.Examples
	return NewFallback(func() []*spider.Example {
		calls.Add(1)
		return train
	}), train
}

func TestFallbackTrainsOnlyWhenATenantNeedsIt(t *testing.T) {
	var calls atomic.Int64
	fb, _ := countingFallback(&calls)

	// A catalog that registers and loads nothing never trains.
	idle := newTestCatalog(t, Config{Client: llm.NewSim(llm.ChatGPT), Fallback: fb})
	idle.List()
	idle.Stats()
	if _, ok := idle.Lookup("nobody"); ok {
		t.Fatal("unknown tenant resolved")
	}
	if err := idle.Deregister("nobody"); err != ErrNotFound {
		t.Fatalf("deregister unknown: %v", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("idle catalog called the bootstrap function %d times, want 0", n)
	}

	// Loading a stored snapshot that carries trained models does not need
	// the fallback either.
	dir := t.TempDir()
	st := openStore(t, dir)
	c := newDurableCatalog(t, st, nil)
	if _, err := c.Register(Registration{DB: shopDB("built"), Demos: shopDemos()}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, c, "built")
	closeCatalog(t, c)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	c2 := newDurableCatalog(t, st2, func(cfg *Config) { cfg.Fallback = fb })
	defer closeCatalog(t, c2)
	tn, ok := c2.Lookup("built")
	if !ok || tn.Snapshot().State != StateReady {
		t.Fatal("stored tenant with models did not load ready")
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("loading a built snapshot called the bootstrap function %d times, want 0", n)
	}

	// The first registration trains; later ones reuse the models.
	for i := 0; i < 3; i++ {
		if _, err := c2.Register(Registration{DB: shopDB(fmt.Sprintf("fresh%d", i)), Demos: shopDemos()}); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("after %d registrations the bootstrap function ran %d times, want 1", i+1, n)
		}
	}
}

func TestFallbackConcurrentFirstRegistrationsTrainOnce(t *testing.T) {
	var calls atomic.Int64
	fb, _ := countingFallback(&calls)
	c := newTestCatalog(t, Config{Client: llm.NewSim(llm.ChatGPT), Fallback: fb})

	const n = 16
	snaps := make([]*Snapshot, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			snaps[i], errs[i] = c.Register(Registration{DB: shopDB(fmt.Sprintf("t%d", i)), Demos: shopDemos()})
		}(i)
	}
	close(start)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent first registrations called the bootstrap function %d times, want 1", n, got)
	}
	for i, s := range snaps {
		if errs[i] != nil {
			t.Fatalf("register t%d: %v", i, errs[i])
		}
		if s.State != StateWarming {
			t.Fatalf("t%d: state %s, want the warming snapshot", i, s.State)
		}
		if s.Pipeline.Classifier() != fb.clf || s.Pipeline.Predictor() != fb.pred {
			t.Fatalf("t%d: warming pipeline does not share the one set of fallback models", i)
		}
	}
}

func TestFallbackTrainingIsTracedOnTheTriggeringRequest(t *testing.T) {
	var calls atomic.Int64
	fb, train := countingFallback(&calls)
	c := newTestCatalog(t, Config{Client: llm.NewSim(llm.ChatGPT), Fallback: fb})
	tr := trace.New(trace.Config{Service: "shard", Sample: 1})

	// register runs one registration under its own root span and returns
	// the spans of its trace named catalog.fallback_train.
	register := func(name string) []trace.SpanJSON {
		ctx, root := tr.StartRoot(context.Background(), "POST /v1/databases", trace.SpanContext{})
		if _, err := c.Register(Registration{DB: shopDB(name), Demos: shopDemos(), Trace: trace.LinkFromContext(ctx)}); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		got, ok := tr.Trace(root.Context().TraceID)
		if !ok {
			t.Fatalf("trace of %s not held", name)
		}
		var out []trace.SpanJSON
		for _, sp := range got.Spans {
			if sp.Name == "catalog.fallback_train" {
				out = append(out, sp)
			}
		}
		return out
	}

	first := register("first")
	if len(first) != 1 {
		t.Fatalf("first registration: %d catalog.fallback_train spans, want 1", len(first))
	}
	if got := first[0].Attrs["demos"]; got != int64(len(train)) {
		t.Fatalf("fallback_train demos = %v, want %d", got, len(train))
	}
	if second := register("second"); len(second) != 0 {
		t.Fatalf("second registration: %d catalog.fallback_train spans, want 0 (models reused)", len(second))
	}
}
