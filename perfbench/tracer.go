package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one traced call: a layer name, its start and end as offsets
// from the tracer's epoch, and the index of the span that caused it (-1
// for a root: a round, or a probe pass). Spans of one round share the
// round number.
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	round      int32
}

// tracer records spans from the one client goroutine that drives a
// workload, so it needs no locking. Spans stay in memory until write.
// A nil *tracer records nothing: untraced code paths call the same
// begin/end pair and pay one nil check.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	round int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span as a child of the innermost open span and returns
// its index for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, round: t.round})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// durations returns the durations of every span named name, in
// recording order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// write dumps every span as one JSON object per line: name, round,
// start and end in nanoseconds from the epoch, and the parent index.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"round\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n",
			i, s.name, s.round, int64(s.start), int64(s.end), s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
