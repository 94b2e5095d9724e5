package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// bounds in microseconds since the trace began, the span that caused it and
// the batch or request it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pass nil and pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
	// profile is the traced window's CPU profile (gzipped profile.proto).
	profile []byte
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(name, req string, parent int) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Since(t.t0).Microseconds()}}
}

// id returns the span's identifier, 0 for a nil span.
func (o *openSpan) id() int {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and keeps it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.t0).Microseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// record keeps a finished span whose bounds come from a view the program
// returned, such as a job's submitted, started and finished times.
func (t *tracer) record(name, req string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Microseconds(), End: end.Sub(t.t0).Microseconds()})
	t.mu.Unlock()
}

// write stores the spans as JSON lines in base.spans.jsonl and the CPU
// profile in base.pprof.
func (t *tracer) write(base string) error {
	if err := os.WriteFile(base+".pprof", t.profile, 0o644); err != nil {
		return err
	}
	path := base + ".spans.jsonl"
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
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", n, path)
	return nil
}
