package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a layer boundary crossed
// from the benchmark's side (run → workload pass → scenario sweep →
// 256-seed batch, or layer → probe).
type span struct {
	Name   string
	Start  float64 // host seconds since the log was opened
	End    float64
	Parent int // index of the enclosing span, -1 at the root
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced passes share the traced passes' code.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: wallNow()} }

// begin opens a span and returns its index; end closes it.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: since(l.epoch), Parent: parent})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = since(l.epoch)
}

// selfTime is a span's duration minus the part its direct children cover.
func (l *spanLog) selfTime(id int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := l.spans[id].End - l.spans[id].Start
	for _, s := range l.spans {
		if s.Parent == id {
			self -= s.End - s.Start
		}
	}
	return self
}

// print lists the spans down to the given depth with their total and self
// time, so a traced run shows where its own wall time went.
func (l *spanLog) print(depth int) {
	var walk func(id, level int)
	walk = func(id, level int) {
		s := l.spans[id]
		fmt.Printf("# span %*s%-*s %9.3fs self %9.3fs\n", 2*level, "", 40-2*level, s.Name, s.End-s.Start, l.selfTime(id))
		if level == depth {
			return
		}
		for child := range l.spans {
			if l.spans[child].Parent == id {
				walk(child, level+1)
			}
		}
	}
	for id := range l.spans {
		if l.spans[id].Parent < 0 {
			walk(id, 0)
		}
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, microseconds), loadable in Perfetto or chrome://tracing.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		ev := event{Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6, Pid: 1, Tid: 1}
		if s.Parent >= 0 {
			ev.Args = map[string]string{"parent": l.spans[s.Parent].Name}
		}
		events = append(events, ev)
	}
	l.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
