package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public entry point it drives (spans inside the program
// are a separate change). Times are nanoseconds since the tracer's
// base; parent is the index of the enclosing span in the same buffer,
// or -1 for a root.
type span struct {
	name       uint16
	parent     int32
	start, end int64
}

// tracer keeps spans in a preallocated in-memory buffer. When the
// buffer fills it is folded into per-name totals — self time is a
// span's duration minus the part its children cover — and reused, so
// a run of any length stays within a fixed footprint and records
// without allocating. The last buffer is kept for write-out at the end
// of the run. A nil *tracer records nothing, which is how untraced
// runs pay for tracing with one branch per call site.
type tracer struct {
	names []string
	base  time.Time
	buf   []span
	n     int
	kept  int // spans of the last folded buffer, for writeOut

	self []int64 // folded self time per name, ns
}

func newTracer(capacity int, names ...string) *tracer {
	return &tracer{
		names: names,
		base:  time.Now(),
		buf:   make([]span, capacity),
		self:  make([]int64, len(names)),
	}
}

// begin opens a span and returns its handle for end (and for children
// to name as parent).
func (t *tracer) begin(name int, parent int32) int32 {
	if t == nil {
		return -1
	}
	i := t.n
	t.buf[i] = span{name: uint16(name), parent: parent, start: int64(time.Since(t.base)), end: -1}
	t.n++
	return int32(i)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.buf[i].end = int64(time.Since(t.base))
}

// room reports whether k more spans fit; call fold at a point where
// no span is open when it does not.
func (t *tracer) room(k int) bool { return t == nil || t.n+k <= len(t.buf) }

// fold accumulates the buffered spans into the per-name totals and
// empties the buffer. Every span in the buffer must be closed.
func (t *tracer) fold() {
	if t == nil {
		return
	}
	spans := t.buf[:t.n]
	for _, s := range spans {
		d := s.end - s.start
		t.self[s.name] += d
		if s.parent >= 0 {
			t.self[spans[s.parent].name] -= d
		}
	}
	t.kept, t.n = t.n, 0
}

// selfNs returns the folded self time of the named span kind.
func (t *tracer) selfNs(name int) int64 { return t.self[name] }

// writeOut writes the spans of the last folded buffer, one JSON object
// per line, to path. Called once the run has ended, after the final
// fold (the buffer contents survive folding).
func (t *tracer) writeOut(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.buf[:t.kept] {
		rec := struct {
			I      int    `json:"i"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, t.names[s.name], s.parent, s.start, s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}
