package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the enclosing span, or -1.
type Span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"` // since the tracer's origin
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once at the end
// of the run so recording costs one append.
type tracer struct {
	origin time.Time
	spans  []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, Span{Name: name, Req: req, Parent: parent, Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.origin) }

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	t.spans = append(t.spans, Span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and child time outside the parent is ignored).
func selfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
