package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: "layer.Call", when it started and
// ended (nanoseconds since the tracer's epoch), the span that caused it
// (-1 for the root of an operation) and the operation it belongs to. All
// spans of one operation share Op, the ID of the operation's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out once, at exit. It is
// used from one goroutine at a time (the in-process replays are serial). A
// nil tracer records nothing, which is how the untraced replay that
// bench.trace_overhead_share compares against is run.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	parent, op := -1, id
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// opSelfError returns, over every operation, the largest relative gap
// between the operation's wall time and the sum of its spans' self times.
// It is 0 when spans nest properly; the traced run fails above 5 %.
func opSelfError(spans []span) float64 {
	sum := map[int]int64{}
	for i, d := range selfTimes(spans) {
		sum[spans[i].Op] += d
	}
	worst := 0.0
	for op, total := range sum {
		wall := spans[op].End - spans[op].Start
		if wall <= 0 {
			continue
		}
		gap := float64(total-wall) / float64(wall)
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// traceFile is the span file's layout.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SelfNSByName is the total self time per span name, the numbers the
	// per-layer time metrics are derived from.
	SelfNSByName map[string]int64 `json:"self_ns_by_name"`
	Spans        []span           `json:"spans"`
}

// writeTrace appends one workload's spans to path as one JSON document per
// line (a run of several workloads writes several lines).
func writeTrace(path, workload string, seed uint64, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{
		Workload: workload, Seed: seed, SelfNSByName: selfByName(spans), Spans: spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
