package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers. Spans stay in memory until the run ends and are then written
// out as one Chrome trace. A nil *tracer is the untraced mode: every
// method is a no-op and allocates nothing, so end-to-end runs carry no
// tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one recorded interval. parent is the index+1 of the enclosing
// span (0 for a root); self time subtracts the children.
type span struct {
	name   string
	tid    int
	parent int
	start  time.Duration
	end    time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span on lane tid under parent (0 = root) and returns its
// handle for end.
func (t *tracer) begin(name string, tid, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, tid: tid, parent: parent, start: now, end: -1})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// layerTime is the busy time of every span with one name: total is the
// sum of span durations, self subtracts the time child spans cover.
type layerTime struct {
	count       int
	total, self time.Duration
}

// selfTimes computes each span name's count, total and self time from the
// recorded trace.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent > 0 && s.end >= 0 {
			child[s.parent-1] += s.end - s.start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		lt := out[s.name]
		lt.count++
		lt.total += s.end - s.start
		lt.self += s.end - s.start - child[i]
		out[s.name] = lt
	}
	return out
}

// meanSelf is a span name's mean self time in the given unit (0 when the
// name never occurred).
func meanSelf(lt map[string]layerTime, name string, unit time.Duration) float64 {
	l := lt[name]
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / float64(l.count) / float64(unit)
}

// writeChrome writes the spans as a Chrome trace-event file (complete
// "X" events, microsecond timestamps).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
