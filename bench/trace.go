package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Parent 0 is the root; the
// spans of one cell repetition (or one client's requests) share their
// ancestor, which is their common identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the benchmark's own span recorder: spans stay in memory and are
// written out when the run ends. A nil tracer records nothing, so the
// untraced path is the same code with one nil test per boundary. It is
// used from the driver goroutine only; load clients collect their spans
// privately and hand them over after they have joined.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span from timestamps the caller took anyway and
// returns its id (0 from a nil tracer).
func (t *tracer) add(parent int, name, cell string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(parent int, name, cell string, start time.Time) int {
	return t.add(parent, name, cell, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// nameTotals aggregates the spans of one name.
type nameTotals struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // duration minus the part child spans cover
}

// selfTimes computes per-name totals. A span's self time is its duration
// minus the union of its children's intervals (children of a load span
// overlap: two clients run at once).
func selfTimes(spans []span) map[string]nameTotals {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]nameTotals)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		t := out[s.Name]
		t.Count++
		t.TotalNs += s.End - s.Start
		t.SelfNs += s.End - s.Start - covered
		out[s.Name] = t
	}
	return out
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	ByName   map[string]nameTotals `json:"by_name"`
	Spans    []span                `json:"spans"`
}

func tracePath(workload string) string { return filepath.Join("out", "trace-"+workload+".json") }

func (t *tracer) write(opt options) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.Marshal(traceFile{Workload: opt.workload, Seed: opt.seed, ByName: selfTimes(t.spans), Spans: t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(tracePath(opt.workload), b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
