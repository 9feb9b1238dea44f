package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. The spans of
// one request share req; parent indexes the enclosing span in the same
// lane (-1 for a request's root span).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32
	req        int32
}

// lane holds the spans of one goroutine. Only that goroutine appends, so
// recording takes no lock. A nil lane records nothing: the untraced
// phase runs the same request code with nil lanes.
type lane struct {
	epoch time.Time
	spans []span
}

// laneCapacity preallocates room for every span of a traced phase, so
// recording does not reallocate while requests are timed.
const laneCapacity = 1 << 16

func (l *lane) begin(name string, parent, req int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.epoch), parent: int32(parent), req: int32(req)})
	return len(l.spans) - 1
}

func (l *lane) end(i int) {
	if l != nil {
		l.spans[i].end = time.Since(l.epoch)
	}
}

// tracer is the in-memory span store of one traced phase: one lane per
// client plus one for the op tour and layer probes.
type tracer struct {
	names []string
	lanes []*lane
}

func newTracer(names ...string) *tracer {
	epoch := time.Now()
	t := &tracer{names: names}
	for range names {
		t.lanes = append(t.lanes, &lane{epoch: epoch, spans: make([]span, 0, laneCapacity)})
	}
	return t
}

// selfTimes returns the self times in milliseconds of every span in the
// lanes, grouped by span name. A span's self time is its duration minus
// the durations of its children; children never overlap because one
// goroutine records them one after another.
func selfTimes(lanes []*lane) map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range lanes {
		self := make([]time.Duration, len(l.spans))
		for i, s := range l.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range l.spans {
			out[s.name] = append(out[s.name], ms(self[i]))
		}
	}
	return out
}

// traceEvent is one record of the Chrome trace-event format, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores every span as a complete ("X") event, one thread per
// lane, ordered by start time.
func (t *tracer) write(path string) error {
	var events []traceEvent
	for tid, l := range t.lanes {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": t.names[tid]}})
		for _, s := range l.spans {
			events = append(events, traceEvent{Name: s.name, Ph: "X", Pid: 1, Tid: tid,
				Ts: us(s.start), Dur: us(s.end - s.start), Args: map[string]any{"req": s.req}})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })

	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
