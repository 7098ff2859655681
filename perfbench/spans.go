package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Start  time.Duration // since the tracer started
	End    time.Duration
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-timed span.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// write stores the spans as Chrome trace-event JSON (viewable in Perfetto
// or chrome://tracing), each event carrying its id and parent id.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	fmt.Fprint(w, "[")
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
