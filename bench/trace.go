package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one timed round share a Trace number; set-up and the layer
// probes use trace 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced rounds pass nil.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil for a root span of trace 0).
func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: t.next.Add(1), Name: name, Start: int64(time.Since(t.t0))}
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	}
	return s
}

// root opens the root span of one timed round.
func (t *tracer) root(name string, trace int64) *span {
	s := t.start(nil, name)
	if s != nil {
		s.Trace = trace
	}
	return s
}

// end closes a span and keeps it. Safe for concurrent use.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// durations returns the durations, in seconds, of the spans of timed
// rounds whose name starts with prefix.
func (t *tracer) durations(prefix string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Trace > 0 && strings.HasPrefix(s.Name, prefix) {
			out = append(out, s.duration().Seconds())
		}
	}
	return out
}

// write stores the span log as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
