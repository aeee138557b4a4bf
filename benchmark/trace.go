package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the system.
// Times are nanoseconds since the tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so the untraced pass runs the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// running is an open span. It always measures, because the untraced pass
// needs the same durations for its end-to-end metrics; it is recorded only
// when a tracer is attached.
type running struct {
	t     *tracer
	id    int32
	start time.Time
}

// start opens a span under parent (0 for none).
func (t *tracer) start(name string, parent int32) running {
	r := running{t: t, start: time.Now()}
	if t == nil {
		return r
	}
	t.mu.Lock()
	r.id = int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: r.id, Parent: parent, Name: name, Start: int64(r.start.Sub(t.epoch))})
	t.mu.Unlock()
	return r
}

// end closes the span and returns its duration.
func (r running) end() time.Duration {
	now := time.Now()
	if r.t != nil {
		r.t.mu.Lock()
		r.t.spans[r.id-1].End = int64(now.Sub(r.t.epoch))
		r.t.mu.Unlock()
	}
	return now.Sub(r.start)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// summarize returns per-name totals. A span's self time is its duration
// minus the part its direct children cover; children of one parent run one
// after another on the parent's goroutine, so their durations add.
func (t *tracer) summarize() []spanSummary {
	childTime := make(map[int32]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > s.Start {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*spanSummary)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{name: s.Name}
			byName[s.Name] = sum
		}
		d := s.End - s.Start
		sum.count++
		sum.total += time.Duration(d)
		if self := d - childTime[s.ID]; self > 0 {
			sum.self += time.Duration(self)
		}
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (t *tracer) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-28s %10s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, s := range t.summarize() {
		fmt.Fprintf(w, "%-28s %10d %12.1f %12.1f\n", s.name, s.count, float64(s.total)/1e6, float64(s.self)/1e6)
	}
}
