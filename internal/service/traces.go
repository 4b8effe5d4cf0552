package service

import (
	"net/http"

	"repro/internal/trace"
)

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id, ok := trace.ParseTraceID(r.PathValue("id"))
	if !ok {
		http.Error(w, "malformed trace id", http.StatusBadRequest)
		return
	}
	tj, ok := s.tracer.Trace(id)
	if !ok {
		http.Error(w, "unknown trace", http.StatusNotFound)
		return
	}
	writeJSON(w, tj)
}
