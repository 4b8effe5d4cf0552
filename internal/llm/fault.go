package llm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// FaultConfig describes one fault-injection regime for the LLM client.
type FaultConfig struct {
	// Latency is added to every Complete call before the inner client runs.
	// The sleep honors the request context: a cancelled request stops
	// waiting immediately (the response is still synthesized or forwarded,
	// matching the inner client's no-error contract).
	Latency time.Duration
	// ErrorRate is the probability in [0,1] that a call is answered with a
	// schema-invalid completion instead of reaching the inner client — the
	// same failure surface as a hallucination, so the downstream adaption
	// and consistency-voting machinery sees a degraded provider, not a new
	// error channel the Client interface doesn't have.
	ErrorRate float64
	// Seed drives the injection PRNG (default 1), so a faulted run is
	// reproducible.
	Seed int64
}

// FaultStats is a point-in-time snapshot of a Fault's counters.
type FaultStats struct {
	// Calls counts every Complete through any wrapped client.
	Calls int64
	// InjectedLatency counts calls that paid an added-latency sleep;
	// InjectedErrors counts calls answered with a synthesized bad
	// completion instead of the inner client.
	InjectedLatency int64
	InjectedErrors  int64
	// Brownout reports whether the brownout window is currently open.
	Brownout bool
}

// Fault is the fault-injection control plane: a base regime that applies
// whenever it is non-zero, plus a "brownout" window — a second, typically
// heavier regime toggled at runtime (the scenario harness opens it at a
// phase boundary and closes it after). One Fault can Wrap several clients
// (e.g. the pipeline's cached client and the catalog's raw backend) so a
// single toggle degrades every LLM path at once.
type Fault struct {
	mu    sync.Mutex
	base  FaultConfig
	brown FaultConfig
	rng   *rand.Rand

	brownOn         atomic.Bool
	calls           atomic.Int64
	injectedLatency atomic.Int64
	injectedErrors  atomic.Int64
}

// NewFault builds a control plane with the given always-on base regime
// (zero means faults only during brownout windows).
func NewFault(base FaultConfig) *Fault {
	seed := base.Seed
	if seed == 0 {
		seed = 1
	}
	return &Fault{base: base, rng: rand.New(rand.NewSource(seed))}
}

// Wrap returns a Client that applies f's active regime in front of inner.
func (f *Fault) Wrap(inner Client) Client { return &faultClient{f: f, inner: inner} }

// SetBrownout opens or closes the brownout window; a non-nil cfg replaces
// the window's regime first, so one call both shapes and starts a brownout.
func (f *Fault) SetBrownout(on bool, cfg *FaultConfig) {
	if cfg != nil {
		f.mu.Lock()
		f.brown = *cfg
		f.mu.Unlock()
	}
	f.brownOn.Store(on)
}

// Brownout reports whether the brownout window is open.
func (f *Fault) Brownout() bool { return f.brownOn.Load() }

// Configs returns the base and brownout-window regimes.
func (f *Fault) Configs() (base, brownout FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.base, f.brown
}

// Stats snapshots the injection counters.
func (f *Fault) Stats() FaultStats {
	return FaultStats{
		Calls:           f.calls.Load(),
		InjectedLatency: f.injectedLatency.Load(),
		InjectedErrors:  f.injectedErrors.Load(),
		Brownout:        f.brownOn.Load(),
	}
}

// Instrument registers a scrape-time collector exposing the injection
// counters as llm_fault_* series. Register once per registry.
func (f *Fault) Instrument(reg *metrics.Registry) {
	reg.Collect(func(s *metrics.Sink) {
		st := f.Stats()
		s.Counter("llm_fault_calls_total", "LLM calls seen by the fault-injection layer.", float64(st.Calls))
		s.Counter("llm_fault_injected_latency_total", "LLM calls delayed by injected latency.", float64(st.InjectedLatency))
		s.Counter("llm_fault_injected_errors_total", "LLM calls answered with an injected bad completion.", float64(st.InjectedErrors))
		brown := 0.0
		if st.Brownout {
			brown = 1
		}
		s.Gauge("llm_fault_brownout", "1 while the brownout window is open.", brown)
	})
}

// active picks the regime for one call: the brownout window replaces the
// base wholesale while open.
func (f *Fault) active() FaultConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.brownOn.Load() {
		return f.brown
	}
	return f.base
}

// draw returns a uniform [0,1) variate from the shared seeded PRNG.
func (f *Fault) draw() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

type faultClient struct {
	f     *Fault
	inner Client
}

func (c *faultClient) Name() string { return "fault(" + c.inner.Name() + ")" }

// Complete applies the active regime, then delegates. Injected "errors" are
// schema-invalid completions — executable nowhere, like a hallucination —
// because the Client interface deliberately has no error channel.
func (c *faultClient) Complete(req Request) Response {
	c.f.calls.Add(1)
	cfg := c.f.active()
	if cfg.Latency > 0 {
		c.f.injectedLatency.Add(1)
		sleepCtx(req, cfg.Latency)
	}
	if cfg.ErrorRate > 0 && c.f.draw() < cfg.ErrorRate {
		c.f.injectedErrors.Add(1)
		n := req.N
		if n <= 0 {
			n = 1
		}
		resp := Response{}
		for i := 0; i < n; i++ {
			resp.SQLs = append(resp.SQLs, "SELECT fault FROM fault_injected_outage")
			resp.OutputTokens += 5
		}
		return resp
	}
	return c.inner.Complete(req)
}

// sleepCtx sleeps d but wakes early when the request's context dies — an
// injected delay must not outlive the caller it is delaying.
func sleepCtx(req Request, d time.Duration) {
	if req.Ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-req.Ctx.Done():
	}
}
