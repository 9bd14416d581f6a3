package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into the system, recorded by the benchmark
// around a public function. Spans of one operation (a request, a
// training round, a set-up) share Req; Parent is 0 for a root.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so traced and untraced runs execute the same calls.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	lastID int64
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span. It also times untraced calls: end returns
// the elapsed wall time whether or not a tracer records it.
type spanRef struct {
	t          *tracer
	id, parent int64
	req        int64
	name       string
	start      time.Time
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.lastID
}

// root opens the first span of a new operation.
func (t *tracer) root(name string) spanRef {
	id := t.newID()
	return spanRef{t: t, id: id, req: id, name: name, start: time.Now()}
}

// child opens a span caused by s, in the same operation.
func (s spanRef) child(name string) spanRef {
	return spanRef{t: s.t, id: s.t.newID(), parent: s.id, req: s.req, name: name, start: time.Now()}
}

// end closes the span and returns its duration.
func (s spanRef) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
			Start: s.start.Sub(s.t.t0), End: now.Sub(s.t.t0),
		})
		s.t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (concurrent calls) count once, and a child running past its parent
// counts only inside the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Name         string
	Count        int
	P50, SelfP50 time.Duration
	SelfTotal    time.Duration
}

// summarize groups spans by name, sorted by total self time.
func summarize(spans []span) []spanStat {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	totals := map[string]time.Duration{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID]))
		totals[s.Name] += self[s.ID]
	}
	out := make([]spanStat, 0, len(durs))
	for name, d := range durs {
		out = append(out, spanStat{
			Name: name, Count: len(d),
			P50:       time.Duration(percentile(d, 50)),
			SelfP50:   time.Duration(percentile(selfs[name], 50)),
			SelfTotal: totals[name],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfTotal != out[j].SelfTotal {
			return out[i].SelfTotal > out[j].SelfTotal
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// medianDur is the median duration of the spans named name (0 if none).
func medianDur(spans []span, name string) time.Duration {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.dur()))
		}
	}
	if len(d) == 0 {
		return 0
	}
	return time.Duration(percentile(d, 50))
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write span: %w", err)
		}
	}
	return nil
}
