package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Times are
// nanoseconds since the tracer started; Parent is the index of the
// span that caused this one (-1 for a root); Pass numbers the timed
// pass it belongs to (-1 outside any pass: set-up, warm-up, probes).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
}

// noSpan is the id begin returns while tracing is off, and the parent
// of a root span.
const noSpan = -1

// tracer records spans in memory around the calls the harness makes
// into each layer; nothing is written until the run ends. It never
// wraps a value handed to the program under test, so optional
// interfaces (RangedSource, BatchEdgeSink, ...) stay visible.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	enabled bool
	pass    int
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), pass: -1} }

// setPass tags subsequent spans with a pass number and switches
// recording on or off for it.
func (t *tracer) setPass(pass int, enabled bool) {
	t.mu.Lock()
	t.pass, t.enabled = pass, enabled
	t.mu.Unlock()
}

// begin opens a span and returns its id, or noSpan while tracing is off.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return noSpan
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Pass: t.pass})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children (overlapping children —
// concurrent clients under one pass span — are merged first, so
// covered time is never counted twice).
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
		var covered, curLo, curHi int64
		open := false
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = lo, hi, true
			case lo <= curHi:
				if hi > curHi {
					curHi = hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = lo, hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// timed returns the spans of timed passes whose name starts with prefix.
func (t *tracer) timed(prefix string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Pass >= 0 && strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// passSeconds sums, for each timed pass that recorded at least one span
// whose name starts with prefix, the durations of those spans, in
// seconds.
func (t *tracer) passSeconds(prefix string) []float64 {
	sums := map[int]float64{}
	for _, s := range t.timed(prefix) {
		sums[s.Pass] += float64(s.End-s.Start) / 1e9
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// traceFile is what -out writes per traced workload: the spans plus
// the per-name totals a reader usually wants first.
type traceFile struct {
	Workload string             `json:"workload"`
	Spans    []span             `json:"spans"`
	TotalS   map[string]float64 `json:"total_s"`
	SelfS    map[string]float64 `json:"self_s"`
}

// write stores the trace as JSON at path.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	tf := traceFile{Workload: workload, Spans: spans, TotalS: map[string]float64{}, SelfS: map[string]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		tf.TotalS[s.Name] += float64(s.End-s.Start) / 1e9
		tf.SelfS[s.Name] += float64(self[i]) / 1e9
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
