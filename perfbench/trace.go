package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the tracer's
// epoch; parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	parent     int32
	start, end int64
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call, so the same replay
// code serves the untraced baseline of the overhead measurement.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: int32(parent), start: t.now()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].end = t.now()
	}
}

// spanAgg aggregates the spans of one name.
type spanAgg struct {
	count int
	total int64 // summed durations, ns
	self  int64 // summed self times, ns
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once, and parts outside the parent's interval do not count).
func (t *tracer) selfTimes() []int64 {
	children := make(map[int32][]int, len(t.spans)/4)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		var covered int64
		curS, curE := int64(-1), int64(-1)
		for _, k := range kids {
			ks, ke := t.spans[k].start, t.spans[k].end
			if ks < s.start {
				ks = s.start
			}
			if ke > s.end {
				ke = s.end
			}
			if ke <= ks {
				continue
			}
			if ks > curE {
				covered += curE - curS
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		covered += curE - curS
		self[i] -= covered
	}
	return self
}

// aggregate sums spans by name.
func (t *tracer) aggregate() map[string]spanAgg {
	self := t.selfTimes()
	out := make(map[string]spanAgg)
	for i, s := range t.spans {
		a := out[s.name]
		a.count++
		a.total += s.end - s.start
		a.self += self[i]
		out[s.name] = a
	}
	return out
}
