package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark call into a layer. Request spans (an append, a
// query, a read session, a CDC epoch, a maintenance pass, a set-up or
// timed phase) carry a fresh request id and the counter deltas observed
// between their start and end; their children share the request id.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root span
	Req    int64              `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`

	root   int // index of the root span (the phase)
	before map[string]float64
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil or disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on   bool
	t0   time.Time
	snap func() map[string]float64 // counters of the region being traced

	mu    sync.Mutex
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a child span of parent (which must be a span id, not -1)
// within the parent's request.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on || parent < 0 {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: p.Req, Name: name, Start: now, root: p.root})
	return len(t.spans) - 1
}

// request opens a span that starts a new request: it takes a fresh
// request id and a counter snapshot. parent is -1 for a phase root.
func (t *tracer) request(name string, parent int) int {
	return t.counted(name, parent, true)
}

// measure opens a child span within the parent's request that records
// the counter deltas over its interval.
func (t *tracer) measure(name string, parent int) int {
	if parent < 0 {
		return -1
	}
	return t.counted(name, parent, false)
}

func (t *tracer) counted(name string, parent int, newReq bool) int {
	if t == nil || !t.on {
		return -1
	}
	before := t.snap()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := span{ID: id, Parent: parent, Name: name, Start: now, root: id, before: before}
	if parent >= 0 {
		s.root = t.spans[parent].root
		s.Req = t.spans[parent].Req
	}
	if newReq {
		t.reqs++
		s.Req = t.reqs
	}
	t.spans = append(t.spans, s)
	return id
}

// end closes a span; a request span records its counter deltas.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	var after map[string]float64
	t.mu.Lock()
	hasBefore := t.spans[id].before != nil
	t.mu.Unlock()
	if hasBefore {
		after = t.snap()
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if hasBefore {
		s.Counts = make(map[string]float64, len(after))
		for k, v := range after {
			s.Counts[k] = v - s.before[k]
		}
		s.before = nil
	}
}

// spanAgg sums the spans of one name within one phase.
type spanAgg struct {
	n      int
	dur    time.Duration
	self   time.Duration
	counts map[string]float64
}

func (a *spanAgg) meanMS() float64 { return ratio(ms(a.dur), float64(a.n)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// aggregate groups spans by "<phase>/<name>", where the phase is the
// name of the span's root, and also by "*/<name>" across phases. A
// span's self time is its duration minus the part of its interval its
// children cover.
func (t *tracer) aggregate() map[string]*spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*spanAgg)
	add := func(key string, s *span, self int64) {
		a := out[key]
		if a == nil {
			a = &spanAgg{counts: map[string]float64{}}
			out[key] = a
		}
		a.n++
		a.dur += time.Duration(s.End - s.Start)
		a.self += time.Duration(self)
		for k, v := range s.Counts {
			a.counts[k] += v
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		add(t.spans[s.root].Name+"/"+s.Name, s, self)
		add("*/"+s.Name, s, self)
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
