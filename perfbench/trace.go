package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one script share Script;
// Parent is the id of the enclosing span (0 for a root).
type span struct {
	ID, Parent, Script int32
	Name               string
	Start, End         int64 // nanoseconds since the tracer's epoch
}

// tracer records spans in memory, single-goroutine, and writes them out
// only when the run ends. A disabled tracer records nothing, which is how
// the traced run measures its own overhead.
type tracer struct {
	on      bool
	epoch   time.Time
	spans   []span
	limit   int
	dropped int
}

func newTracer(limit int) *tracer {
	return &tracer{on: true, epoch: time.Now(), spans: make([]span, 0, limit), limit: limit}
}

// start opens a span and returns its id (0 when nothing was recorded).
func (t *tracer) start(name string, parent, script int32) int32 {
	if !t.on {
		return 0
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Script: script, Name: name,
		Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// layerTimes sums total and self time per span name. Self time is a span's
// duration minus the time its direct children cover.
type layerTimes struct {
	total, self map[string]time.Duration
}

// aggregate sums a contiguous run of spans whose parents all lie within it.
func aggregate(spans []span) layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	if len(spans) == 0 {
		return lt
	}
	base := spans[0].ID
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= base {
			child[s.Parent-base] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		lt.total[s.Name] += time.Duration(d)
		lt.self[s.Name] += time.Duration(d - child[i])
	}
	return lt
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"script\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Parent, s.Script, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
