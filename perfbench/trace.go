package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around each call into a
// layer of the program. Spans stay in memory and are written as JSON
// when the run ends. A nil *tracer records nothing, so the untraced
// run pays one nil check per call site.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []spanRecord
	nextID int64
}

// spanRecord is one completed span; times are nanoseconds since the
// tracer started. Spans of one operation share a trace ID; a root span
// has parent 0.
type spanRecord struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span; End closes it.
type span struct {
	t      *tracer
	name   string
	trace  int64
	id     int64
	parent int64
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a span that starts a new trace.
func (t *tracer) root(name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &span{t: t, name: name, trace: id, id: id, start: time.Now()}
}

// child opens a span under s, in s's trace.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	s.t.nextID++
	id := s.t.nextID
	s.t.mu.Unlock()
	return &span{t: s.t, name: name, trace: s.trace, id: id, parent: s.id, start: time.Now()}
}

// end closes the span and returns its duration (0 for a nil span).
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, spanRecord{
		Name:   s.name,
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
		Start:  s.start.Sub(s.t.t0).Nanoseconds(),
		End:    now.Sub(s.t.t0).Nanoseconds(),
	})
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// records returns a copy of the completed spans.
func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: each span's duration minus the part of its interval that
// its child spans cover.
func selfTimes(spans []spanRecord) []layerTime {
	children := make(map[int64][]spanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*layerTime)
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent spanRecord, kids []spanRecord) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as a JSON array.
func writeSpans(path string, spans []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// printLayers writes the per-name span table.
func printLayers(w io.Writer, spans []spanRecord) {
	fmt.Fprintf(w, "# spans: %d recorded\n", len(spans))
	fmt.Fprintf(w, "# %-24s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range selfTimes(spans) {
		fmt.Fprintf(w, "# %-24s %8d %14.3f %14.3f\n", lt.Name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6)
	}
}
