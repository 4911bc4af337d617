package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is ../BENCHMARK.json, the registry of workloads and metrics.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one listed metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("read manifest: %w", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("parse manifest %s: %w", path, err)
	}
	return m, nil
}

func (m manifest) workloadNames() []string {
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	return names
}
