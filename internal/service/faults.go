package service

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/llm"
)

// FaultRegime is the JSON shape of one fault-injection regime.
type FaultRegime struct {
	LatencyMs float64 `json:"latency_ms"`
	ErrorRate float64 `json:"error_rate"`
}

func faultRegime(c llm.FaultConfig) FaultRegime {
	return FaultRegime{LatencyMs: float64(c.Latency) / 1e6, ErrorRate: c.ErrorRate}
}

// FaultStateResponse reports the fault layer's regimes. Its injection
// counters are on /v1/metrics as llm_fault_*.
type FaultStateResponse struct {
	Brownout bool        `json:"brownout"`
	Base     FaultRegime `json:"base"`
	Window   FaultRegime `json:"window"`
}

// FaultSetRequest toggles the brownout window. LatencyMs/ErrorRate, when
// present, reshape the window's regime in the same call — this is how a
// scenario opens a brownout of a specific severity at a phase boundary.
type FaultSetRequest struct {
	Brownout  bool     `json:"brownout"`
	LatencyMs *float64 `json:"latency_ms,omitempty"`
	ErrorRate *float64 `json:"error_rate,omitempty"`
}

func (s *Server) faultState() FaultStateResponse {
	base, window := s.fault.Configs()
	return FaultStateResponse{
		Brownout: s.fault.Brownout(),
		Base:     faultRegime(base),
		Window:   faultRegime(window),
	}
}

func (s *Server) handleFaultGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.faultState())
}

func (s *Server) handleFaultSet(w http.ResponseWriter, r *http.Request) {
	var req FaultSetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
		return
	}
	var cfg *llm.FaultConfig
	if req.LatencyMs != nil || req.ErrorRate != nil {
		_, window := s.fault.Configs()
		if req.LatencyMs != nil {
			if *req.LatencyMs < 0 {
				http.Error(w, "latency_ms must be >= 0", http.StatusBadRequest)
				return
			}
			window.Latency = time.Duration(*req.LatencyMs * 1e6)
		}
		if req.ErrorRate != nil {
			if *req.ErrorRate < 0 || *req.ErrorRate > 1 {
				http.Error(w, "error_rate must be in [0,1]", http.StatusBadRequest)
				return
			}
			window.ErrorRate = *req.ErrorRate
		}
		cfg = &window
	}
	s.fault.SetBrownout(req.Brownout, cfg)
	writeJSON(w, s.faultState())
}
