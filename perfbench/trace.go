package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's origin. Parent 0 marks a root (a run or a
// job); Key is the root's key and is shared by every span below it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Flag carries one boolean outcome of the span (a worker status poll
	// that found its job finished).
	Flag bool `json:"flag,omitempty"`
}

// rec is a span as the tracer keeps it. It holds no pointers, so a trace
// of a few hundred thousand spans gives the garbage collector nothing to
// scan and adds little to the traced run's own cost.
type rec struct {
	parent     int32
	name       uint16
	flag       bool
	start, end int64
}

// tracer keeps spans in memory until the benchmark ends. It is safe for
// concurrent use: the fleet workload records spans from HTTP handlers.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	recs  []rec
	names []string          // span names by rec.name
	ids   map[string]uint16 // rec.name by span name
	keys  map[int]string    // root span ID → key
	// current is the open job span that worker and coordinator requests
	// belong to (the fleet client is closed-loop, so at most one job is
	// open at a time); 0 when none is.
	current int
}

func newTracer(origin time.Time, capacity int) *tracer {
	return &tracer{
		origin: origin,
		recs:   make([]rec, 0, capacity),
		ids:    make(map[string]uint16),
		keys:   make(map[int]string),
	}
}

// add records a closed span and returns its ID.
func (t *tracer) add(parent int, name, key string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.addLocked(parent, name, start, end, false)
	if key != "" {
		t.keys[id] = key
	}
	return id
}

func (t *tracer) addLocked(parent int, name string, start, end time.Time, flag bool) int {
	n, ok := t.ids[name]
	if !ok {
		n = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = n
	}
	t.recs = append(t.recs, rec{
		parent: int32(parent), name: n, flag: flag,
		start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin)),
	})
	return len(t.recs)
}

// open starts a span whose end is not known yet; close ends it.
func (t *tracer) open(parent int, name, key string, start time.Time) int {
	return t.add(parent, name, key, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs[id-1].end = int64(end.Sub(t.origin))
}

// setCurrent makes job span id the parent of the requests that follow.
func (t *tracer) setCurrent(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.current = id
}

// addUnderCurrent records a request span below the open job span.
func (t *tracer) addUnderCurrent(name string, start, end time.Time, flag bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(t.current, name, start, end, flag)
}

// snapshot returns the spans with every key propagated down from its
// root, so all spans of one run or job share the root's key.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, len(t.recs))
	for i, r := range t.recs {
		s := span{ID: i + 1, Parent: int(r.parent), Name: t.names[r.name], Start: r.start, End: r.end, Flag: r.flag}
		if s.Parent > 0 {
			// Parents precede children, so a parent's key is already final.
			s.Key = out[s.Parent-1].Key
		} else {
			s.Key = t.keys[s.ID]
		}
		out[i] = s
	}
	return out
}

// selfTimes returns each span's self time, index-aligned with spans: its
// duration minus the part of its interval that its children cover. Child
// intervals are clipped to the parent and overlaps are counted once.
// Span IDs must equal their 1-based index.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered measures the union of the children's intervals within parent.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name, in nanoseconds.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// durationsOf returns the durations, in milliseconds, of the spans named
// name, in recording order.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

// writeSpans writes spans as JSON lines to dir/<name>.jsonl and returns
// the path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", errors.Join(fmt.Errorf("writing spans: %w", err), f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return "", errors.Join(fmt.Errorf("writing spans: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing span file: %w", err)
	}
	return path, nil
}
