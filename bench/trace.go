package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's exported function. Times are nanoseconds since the
// tracer started; Parent is the ID of the enclosing span, -1 at the root.
// Spans of one repetition share Rep.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code path gives the untraced baseline that
// trace.overhead_pct is measured against.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// stack is the chain of open spans on the goroutine that drives the
	// benchmark; do pushes and pops it. Concurrent clients name their
	// parent explicitly through doUnder instead.
	stack []int
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRep tags the spans that follow with a repetition number.
func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = rep
	}
}

// current returns the innermost open span, -1 when none is open.
func (t *tracer) current() int {
	if t == nil || len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

func (t *tracer) open(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Rep: t.rep,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) close(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// do runs fn inside a span nested under the innermost open one and
// returns how long it took. Only the driving goroutine may call it.
func (t *tracer) do(name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := t.open(name, t.current())
	t.stack = append(t.stack, id)
	fn()
	t.stack = t.stack[:len(t.stack)-1]
	return t.close(id)
}

// doUnder is do for goroutines other than the driving one: the parent is
// given, and the span stack is left alone.
func (t *tracer) doUnder(parent int, name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := t.open(name, parent)
	fn()
	return t.close(id)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children that overlap one another
// (concurrent clients) are counted once, and a child is clipped to its
// parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// durations returns the durations in seconds of every span called name,
// in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfByName sums self time in seconds per span name over the spans that
// descend from a root span called root, and returns the roots' total
// duration alongside.
func (t *tracer) selfByName(root string) (byName map[string]float64, total float64) {
	self := selfTimes(t.spans)
	under := make([]bool, len(t.spans))
	byName = make(map[string]float64)
	for i, s := range t.spans {
		switch {
		case s.Name == root && s.Parent < 0:
			under[i] = true
			total += float64(s.End-s.Start) / 1e9
		case s.Parent >= 0:
			// Spans are appended in open order, so a parent precedes
			// its children.
			under[i] = under[s.Parent]
		}
		if under[i] {
			byName[s.Name] += float64(self[i]) / 1e9
		}
	}
	return byName, total
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
