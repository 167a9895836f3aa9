package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one recorded call into a layer. Spans of one run share the
// tracer's run id; Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Allocs uint64        `json:"allocs"` // heap objects allocated while open
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// layer is the part of a span name before the first dot: the module
// the call went into.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps a run's spans in memory and writes them when the run
// ends. Spans are recorded by the benchmark around the calls it makes
// into each layer's public functions; the program itself is not
// instrumented.
type tracer struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// open starts a span and returns its id. A nil tracer records nothing
// and returns 0, so untraced code paths call it unconditionally.
func (t *tracer) open(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	allocs := heapObjects()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Allocs: allocs})
	return len(t.spans)
}

// close ends span id and returns its duration.
func (t *tracer) close(id int) time.Duration {
	if t == nil {
		return 0
	}
	allocs := heapObjects()
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Allocs = allocs - s.Allocs
	return s.dur()
}

// do runs f inside a span named name.
func (t *tracer) do(parent int, name string, f func() error) error {
	id := t.open(parent, name)
	err := f()
	t.close(id)
	return err
}

// named returns the durations of every closed span called name.
func (t *tracer) named(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].End > 0 {
			out = append(out, t.spans[i].dur())
		}
	}
	return out
}

// layerStat sums, per layer, the self time (a span's duration minus
// what its child spans cover), the self allocations and the number of
// calls.
type layerStat struct {
	self   time.Duration
	allocs uint64
	calls  int
}

// layers computes the self-time table over the spans whose root is
// named root (every root span when root is "").
func (t *tracer) layers(root string) map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	childDur := make([]time.Duration, len(t.spans)+1)
	childAllocs := make([]uint64, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent > 0 {
			childDur[s.Parent] += s.dur()
			childAllocs[s.Parent] += s.Allocs
		}
	}
	rootOf := func(s *span) *span {
		for s.Parent > 0 {
			s = &t.spans[s.Parent-1]
		}
		return s
	}
	out := map[string]*layerStat{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End == 0 || (root != "" && rootOf(s).Name != root) {
			continue
		}
		st := out[s.layer()]
		if st == nil {
			st = &layerStat{}
			out[s.layer()] = st
		}
		st.self += s.dur() - childDur[s.ID]
		if s.Allocs > childAllocs[s.ID] {
			st.allocs += s.Allocs - childAllocs[s.ID]
		}
		st.calls++
	}
	return out
}

// write stores the run's spans as JSON under dir/trace/.
func (t *tracer) write(dir, workload string, seed int64, env any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := filepath.Join(dir, "trace")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{
		"run_id": t.runID, "workload": workload, "seed": seed,
		"environment": env, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, fmt.Sprintf("%s.json", t.runID)), buf, 0o644)
}
