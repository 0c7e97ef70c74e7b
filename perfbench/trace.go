package main

// Spans recorded in memory around the harness's calls into each layer's
// public functions, and the self-time table built from them. Nothing here
// runs inside the program under test: a layer's time is the time its
// entry point took, as seen by the caller.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call. Parent is the enclosing span's ID (0 for a
// root); spans of one job share Job.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer collects spans and per-job counter records. A nil *tracer is a
// valid no-op, which is how untraced runs use it.
type tracer struct {
	t0    time.Time
	spans []span
	jobs  []any
	stats []any
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name, layer string, parent int, job string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Layer: layer, Job: job, Start: t.now()})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.now()
}

// record attaches one job's counters (Result.Stats, a metrics snapshot,
// or a JobResult) to the trace.
func (t *tracer) record(rec any) {
	if t != nil {
		t.jobs = append(t.jobs, rec)
	}
}

// recordStats attaches a /v1/stats document to the trace.
func (t *tracer) recordStats(doc any) {
	if t != nil {
		t.stats = append(t.stats, doc)
	}
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range t.spans {
		covered, reach := 0.0, s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		r := rows[s.Layer]
		if r == nil {
			r = &layerTime{Layer: s.Layer}
			rows[s.Layer] = r
		}
		r.Spans++
		r.SelfMS += s.End - s.Start - covered
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// traceDoc is the file a traced run writes.
type traceDoc struct {
	Schema   string            `json:"schema"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	SelfTime []layerTime       `json:"self_time"`
	Metrics  map[string]metric `json:"metrics"`
	Spans    []span            `json:"spans"`
	Jobs     []any             `json:"jobs"`
	Stats    []any             `json:"daemon_stats,omitempty"`
}

// write saves the trace document and prints the self-time table.
func (t *tracer) write(path, workload string, seed int64, ms map[string]metric, log io.Writer) error {
	doc := traceDoc{Schema: "symmerge-perfbench-trace/v1", Workload: workload, Seed: seed,
		SelfTime: t.selfTimes(), Metrics: ms, Spans: t.spans, Jobs: t.jobs, Stats: t.stats}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "self time per layer (%d spans, trace %s):\n", len(t.spans), path)
	for _, r := range doc.SelfTime {
		fmt.Fprintf(log, "  %-10s %6d spans %12.1f ms\n", r.Layer, r.Spans, r.SelfMS)
	}
	return nil
}
