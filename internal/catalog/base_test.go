package catalog

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/spider"
)

// sameConfig reports whether two pipeline configurations are equal. The
// selection policy's Increase is a func, which reflect.DeepEqual never
// calls equal, so it compares by code pointer.
func sameConfig(a, b core.Config) bool {
	fa, fb := reflect.ValueOf(a.Policy.Increase).Pointer(), reflect.ValueOf(b.Policy.Increase).Pointer()
	a.Policy.Increase, b.Policy.Increase = nil, nil
	return fa == fb && reflect.DeepEqual(a, b)
}

// TestWarmingRunsOnBase: every warming snapshot — a registration, a
// re-registration, a stored snapshot loaded without models — runs on the
// base pipeline's classifier and predictor, and every tenant pipeline, the
// built one included, runs with the base pipeline's configuration.
func TestWarmingRunsOnBase(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Consistency = 7 // not the default, so a tenant left on core.DefaultConfig shows
	b := core.New(spider.GenerateSmall(7, 0.03).Train.Examples, llm.NewSim(llm.ChatGPT), cfg)
	newCatalog := func(t *testing.T) *Catalog {
		cfg := testConfig()
		cfg.Base = b
		return newTestCatalog(t, cfg)
	}
	register := func(t *testing.T, c *Catalog, name string) *Snapshot {
		t.Helper()
		s, err := c.Register(Registration{DB: shopDB(name), Demos: shopDemos()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, tc := range []struct {
		name    string
		state   State
		publish func(t *testing.T) *Snapshot
	}{
		{"registration", StateWarming, func(t *testing.T) *Snapshot {
			return register(t, newCatalog(t), "fresh")
		}},
		{"re-registration", StateWarming, func(t *testing.T) *Snapshot {
			c := newCatalog(t)
			register(t, c, "again")
			s, err := c.Reregister(Registration{DB: shopDB("again", "note"), Demos: shopDemos()})
			if err != nil {
				t.Fatal(err)
			}
			if s.Version != 2 {
				t.Fatalf("re-registration published version %d, want 2", s.Version)
			}
			return s
		}},
		{"stored snapshot without models", StateWarming, func(t *testing.T) *Snapshot {
			dir := t.TempDir()
			st := openStore(t, dir)
			jm, _ := wedgedBuilds(t)
			c := newDurableCatalog(t, st, func(cfg *Config) { cfg.Base, cfg.Jobs = b, jm })
			register(t, c, "unbuilt")
			closeCatalog(t, c)
			// The queued build is cancelled before it runs, so the stored
			// snapshot keeps no models.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := jm.Shutdown(ctx); err != context.Canceled {
				t.Fatalf("shutdown: %v, want context.Canceled", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := openStore(t, dir)
			t.Cleanup(func() { st2.Close() })
			// The resubmitted build stays queued while the test looks.
			jm2, _ := wedgedBuilds(t)
			c2 := newDurableCatalog(t, st2, func(cfg *Config) { cfg.Base, cfg.Jobs = b, jm2 })
			t.Cleanup(func() { closeCatalog(t, c2) })
			tn, ok := c2.Lookup("unbuilt")
			if !ok {
				t.Fatal("stored tenant not resolvable")
			}
			return tn.Snapshot()
		}},
		{"build", StateReady, func(t *testing.T) *Snapshot {
			c := newCatalog(t)
			register(t, c, "built")
			return waitReady(t, c, "built")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.publish(t)
			if s.State != tc.state {
				t.Fatalf("state = %s, want %s", s.State, tc.state)
			}
			if got := s.Pipeline.Config(); !sameConfig(got, b.Config()) {
				t.Errorf("pipeline config = %+v, want the base's %+v", got, b.Config())
			}
			clf, pred := s.Pipeline.Classifier() == b.Classifier(), s.Pipeline.Predictor() == b.Predictor()
			if onBase := tc.state == StateWarming; clf != onBase || pred != onBase {
				t.Errorf("classifier is the base's: %v, predictor is the base's: %v; want %v for both", clf, pred, onBase)
			}
		})
	}
}
