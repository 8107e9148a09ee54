package main

import (
	"encoding/json"
	"os"
	"time"
)

// traceEpoch is the origin of every span's clock: the start of the process.
var traceEpoch = time.Now()

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer: name, start and end (ns since the process began), the
// span that caused it (Parent, -1 for a root) and the request it belongs to.
type span struct {
	Name   string `json:"name"`
	G      int8   `json:"g"` // recording goroutine; ids are per goroutine
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanner collects the spans of one goroutine in memory. A nil *spanner is
// the untraced run: every method is a no-op, so the measured loops carry one
// nil check and nothing else.
type spanner struct {
	g     int8
	on    bool // off during warm-up
	spans []span
}

func newSpanner(g int) *spanner {
	return &spanner{g: int8(g), spans: make([]span, 0, 1<<16)}
}

// enable starts recording; the loops call it between two units, so no span
// is ever half recorded.
func (s *spanner) enable() {
	if s != nil {
		s.on = true
	}
}

// begin opens a span and returns its id (to pass as a child's parent and to
// end).
func (s *spanner) begin(name string, parent int32, req int64) int32 {
	if s == nil || !s.on {
		return -1
	}
	id := int32(len(s.spans))
	s.spans = append(s.spans, span{Name: name, G: s.g, ID: id, Parent: parent, Req: req,
		Start: int64(time.Since(traceEpoch))})
	return id
}

func (s *spanner) end(id int32) {
	if id < 0 {
		return
	}
	s.spans[id].End = int64(time.Since(traceEpoch))
}

// selfStat is a span name's aggregate: how many spans carried it, their
// total duration, and their total self time.
type selfStat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its direct children cover; ids index the
// slice (one spanner's spans), and children never overlap each other because
// one goroutine records them in sequence.
func selfTimes(spans []span) map[string]selfStat {
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			p := spans[sp.Parent]
			lo, hi := max(sp.Start, p.Start), min(sp.End, p.End)
			if hi > lo {
				child[sp.Parent] += hi - lo
			}
		}
	}
	out := make(map[string]selfStat)
	for i, sp := range spans {
		st := out[sp.Name]
		st.Count++
		st.TotalNs += sp.End - sp.Start
		st.SelfNs += sp.End - sp.Start - child[i]
		out[sp.Name] = st
	}
	return out
}

// mergeSelf sums per-goroutine aggregates.
func mergeSelf(parts ...map[string]selfStat) map[string]selfStat {
	out := make(map[string]selfStat)
	for _, p := range parts {
		for name, st := range p {
			o := out[name]
			o.Count += st.Count
			o.TotalNs += st.TotalNs
			o.SelfNs += st.SelfNs
			out[name] = o
		}
	}
	return out
}

// meanNs is a span name's mean duration, 0 when it never occurred.
func meanNs(m map[string]selfStat, name string) float64 {
	st := m[name]
	if st.Count == 0 {
		return 0
	}
	return float64(st.TotalNs) / float64(st.Count)
}

// traceFile is what a traced run writes to benchmark/out/trace-<workload>.json:
// the per-name aggregates over every span, the layer shares derived from
// them, and a bounded sample of raw spans (the head of each goroutine's
// record — a full serve trace is millions of spans).
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Sections map[string]traceSec `json:"sections"`
	Counters map[string]float64  `json:"counters,omitempty"`
}

type traceSec struct {
	Spans     int                 `json:"spans"`
	Aggregate map[string]selfStat `json:"aggregate"`
	Sample    []span              `json:"sample"`
}

// traceSampleSpans bounds the raw spans kept per section in the trace file.
const traceSampleSpans = 4000

func newTraceSec(perGoroutine ...[]span) traceSec {
	sec := traceSec{}
	var parts []map[string]selfStat
	for _, sp := range perGoroutine {
		sec.Spans += len(sp)
		parts = append(parts, selfTimes(sp))
		keep := min(len(sp), traceSampleSpans/len(perGoroutine))
		sec.Sample = append(sec.Sample, sp[:keep]...)
	}
	sec.Aggregate = mergeSelf(parts...)
	return sec
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
