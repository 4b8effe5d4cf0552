package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// Spec is BENCHMARK.json: the workload list and every metric's unit,
// direction and regression bound. The benchmark reads its metric set from
// here, so the file and the program cannot drift apart silently.
type Spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// WorkloadSpec names a workload and records why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec describes one metric. Bound is set only for end-to-end
// metrics: the share of the parent's median by which the metric may worsen
// before a change counts as a regression.
type MetricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

// lowerIsBetter reports the metric's direction.
func (m MetricSpec) lowerIsBetter() bool { return m.Better == "lower" }

const specFile = "BENCHMARK.json"

func loadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", specFile, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", specFile, err)
	}
	return &s, nil
}

// maxBound is the loosest regression bound any end-to-end metric may have.
const maxBound = 0.25

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate enforces the limits the benchmark's consumers rely on: bounded
// counts, well-formed unique names, a reason for every workload, and a
// bound and direction on every end-to-end metric.
func (s *Spec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRe.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: reason must be 1 to 200 characters", w.Name)
		}
	}
	for _, m := range s.EndToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRe.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher", m.Name)
		}
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > maxBound {
			return fmt.Errorf("metric %q: bound must be in [0, %g]", m.Name, maxBound)
		}
	}
	for _, m := range s.PerLayer {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRe.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher", m.Name)
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %q: has a bound", m.Name)
		}
	}
	if !seen["setup_s"] {
		return fmt.Errorf("no setup_s metric")
	}
	return nil
}

// unit is an end-to-end metric's unit.
func (s *Spec) unit(name string) string {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

func (s *Spec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
