package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own call into a module's public function (or by
// its middleware around a handler). Spans of one operation share Op;
// Parent links a span to the span that caused it (0 for a root).
type span struct {
	Name   string             `json:"name"`
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Op     int64              `json:"op,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured loops call it
// unconditionally.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// on gates recording, so one run can measure an untraced phase and a
	// traced phase with the same code (the difference is the overhead).
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t    *tracer
	s    span
	live bool
}

// begin starts a span; the zero open is returned when tracing is off.
func (t *tracer) begin(name string, parent, op int64) open {
	if t == nil || !t.on.Load() {
		return open{}
	}
	return open{t: t, live: true, s: span{
		Name: name, ID: t.nextID.Add(1), Parent: parent, Op: op,
		Start: int64(time.Since(t.t0)),
	}}
}

// id is the span's identifier, for parenting children (0 when off).
func (o *open) id() int64 { return o.s.ID }

// recording reports whether the span will be recorded.
func (o *open) recording() bool { return o.live }

// set attaches a numeric attribute (a count or a reported time).
func (o *open) set(key string, v float64) {
	if !o.live {
		return
	}
	if o.s.Attrs == nil {
		o.s.Attrs = map[string]float64{}
	}
	o.s.Attrs[key] = v
}

// stop fixes the span's end time; attributes may still be set before end
// records it.
func (o *open) stop() {
	if o.live && o.s.End == 0 {
		o.s.End = int64(time.Since(o.t.t0))
	}
}

// end records the span, stopping it first if stop was not called.
func (o *open) end() {
	if !o.live {
		return
	}
	o.stop()
	o.live = false
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
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

// spanSet indexes recorded spans for deriving per-layer metrics.
type spanSet struct {
	all      []span
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) *spanSet {
	ss := &spanSet{all: spans, byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ss.byName[s.Name] = append(ss.byName[s.Name], s)
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], s)
		}
	}
	return ss
}

// self is a span's duration minus the part of its interval covered by
// its children (overlapping children count once).
func (ss *spanSet) self(s span) time.Duration {
	kids := ss.children[s.ID]
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, curA, curB := int64(0), int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			covered += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	covered += curB - curA
	return s.dur() - time.Duration(covered)
}

// meanMS is the mean duration of the named spans in milliseconds.
func (ss *spanSet) meanMS(name string) float64 {
	var xs []float64
	for _, s := range ss.byName[name] {
		xs = append(xs, ms(s.dur()))
	}
	return mean(xs)
}

// meanAttr is the mean of one attribute over the named spans.
func (ss *spanSet) meanAttr(name, key string) float64 {
	var xs []float64
	for _, s := range ss.byName[name] {
		xs = append(xs, s.Attrs[key])
	}
	return mean(xs)
}

// sumAttr totals one attribute over the named spans.
func (ss *spanSet) sumAttr(name, key string) float64 {
	t := 0.0
	for _, s := range ss.byName[name] {
		t += s.Attrs[key]
	}
	return t
}

// medianByQuery groups the named spans by their "q" attribute (the query's
// index) and returns each group's median duration in milliseconds.
func (ss *spanSet) medianByQuery(name string) map[int]float64 {
	return ss.medianOf(name, func(s span) float64 { return ms(s.dur()) })
}

// medianAttrByQuery is medianByQuery of one attribute of the spans.
func (ss *spanSet) medianAttrByQuery(name, key string) map[int]float64 {
	return ss.medianOf(name, func(s span) float64 { return s.Attrs[key] })
}

func (ss *spanSet) medianOf(name string, value func(span) float64) map[int]float64 {
	groups := map[int][]float64{}
	for _, s := range ss.byName[name] {
		q := int(s.Attrs["q"])
		groups[q] = append(groups[q], value(s))
	}
	out := map[int]float64{}
	for q, xs := range groups {
		out[q] = median(xs)
	}
	return out
}

// describe summarises the span inventory for the run report.
func (ss *spanSet) describe() string {
	names := make([]string, 0, len(ss.byName))
	for n := range ss.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%d spans:", len(ss.all))
	for _, n := range names {
		out += fmt.Sprintf(" %s=%d", n, len(ss.byName[n]))
	}
	return out
}
