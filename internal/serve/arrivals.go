package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ArrivalSource generates the offered request stream: successive calls
// return nondecreasing arrival times and the mix-class index of each
// request, with ok = false once the stream is exhausted. The simulator
// consumes a source exactly once per run, in order, so a deterministic
// source yields a deterministic run. The built-in sources are the
// seeded Poisson process (the legacy arrival model, bit-identical to
// the pre-interface stream) and trace replay; Config.Source accepts a
// custom implementation, in which case the caller owns keeping the
// Result reproducible. A custom source's run fails with ErrArrivalOrder
// if a time is NaN or decreases, with ErrArrivalClass if a class is not
// an index into the mix, and with ErrRequestCap if the source offers
// more requests than the stats mode allows.
type ArrivalSource interface {
	Next() (t float64, class int, ok bool)
}

// ErrArrivalOrder is returned when an arrival source yields a time
// that is NaN or earlier than the previous arrival.
var ErrArrivalOrder = errors.New("serve: arrival times must be nondecreasing and not NaN")

// ErrArrivalClass is returned when an arrival source yields a class
// index outside [0, len(Mix)).
var ErrArrivalClass = errors.New("serve: arrival class outside the mix")

// poissonSource is the open-loop Poisson arrival process: exponential
// inter-arrival times at the offered rate, class drawn from the mix —
// all from the seeded splitmix64 generator, preserving the exact draw
// order of the pre-interface simulator (one exp draw, then one class
// draw per arrival).
type poissonSource struct {
	gen     rng
	rate    float64
	horizon float64
	weights []float64
	sumW    float64
	t       float64
}

func newPoissonSource(seed int64, rate, horizonS float64, mix []MixEntry) *poissonSource {
	p := &poissonSource{gen: rng{state: uint64(seed)}, rate: rate, horizon: horizonS}
	for _, e := range mix {
		p.weights = append(p.weights, e.Weight)
		p.sumW += e.Weight
	}
	return p
}

func (p *poissonSource) Next() (float64, int, bool) {
	p.t += p.gen.exp(p.rate)
	if p.t > p.horizon {
		return 0, 0, false
	}
	u := p.gen.float64() * p.sumW
	class := len(p.weights) - 1
	for w, wt := range p.weights {
		if u < wt {
			class = w
			break
		}
		u -= wt
	}
	return p.t, class, true
}

// TraceEvent is one arrival in a replayed trace: an absolute arrival
// time (seconds from the start of the run) and a workload name that
// must appear in the mix.
type TraceEvent struct {
	T        float64 `json:"t"`
	Workload string  `json:"workload"`
}

// traceSource replays a validated trace; events beyond the horizon are
// dropped, mirroring the Poisson source's horizon cut.
type traceSource struct {
	events  []TraceEvent
	classOf map[string]int
	horizon float64
	i       int
}

func (ts *traceSource) Next() (float64, int, bool) {
	if ts.i >= len(ts.events) {
		return 0, 0, false
	}
	e := ts.events[ts.i]
	if e.T > ts.horizon {
		return 0, 0, false // nondecreasing trace: everything after is out too
	}
	ts.i++
	return e.T, ts.classOf[e.Workload], true
}

// validateTrace enforces the trace contract: at least one event,
// finite nonnegative nondecreasing times, and workloads drawn from the
// mix (when a mix is configured; an empty mix is derived from the
// trace instead).
func validateTrace(events []TraceEvent, mix []MixEntry) error {
	if len(events) == 0 {
		return fmt.Errorf("serve: trace has no events")
	}
	classOf := map[string]bool{}
	for _, e := range mix {
		classOf[e.Workload] = true
	}
	prev := 0.0
	for i, e := range events {
		if e.T < 0 || e.T != e.T {
			return fmt.Errorf("serve: trace event %d: time %g must be finite and ≥ 0", i, e.T)
		}
		if e.T < prev {
			return fmt.Errorf("serve: trace event %d: time %g before predecessor %g (times must be nondecreasing)", i, e.T, prev)
		}
		prev = e.T
		if e.Workload == "" {
			return fmt.Errorf("serve: trace event %d: empty workload", i)
		}
		if len(mix) > 0 && !classOf[e.Workload] {
			return fmt.Errorf("serve: trace event %d: workload %q not in the mix", i, e.Workload)
		}
	}
	return nil
}

// mixFromTrace derives a Mix from a trace's composition: one entry per
// distinct workload in first-appearance order, weighted by its share
// of the events. Weights only matter for capacity/auto-rate math and
// the record echo — the replay itself follows the trace exactly.
func mixFromTrace(events []TraceEvent) []MixEntry {
	counts := map[string]int{}
	var order []string
	for _, e := range events {
		if counts[e.Workload] == 0 {
			order = append(order, e.Workload)
		}
		counts[e.Workload]++
	}
	mix := make([]MixEntry, 0, len(order))
	for _, w := range order {
		mix = append(mix, MixEntry{Workload: w, Weight: float64(counts[w]) / float64(len(events))})
	}
	return mix
}

// LoadTrace reads a trace file: a JSON array of {"t": seconds,
// "workload": name} objects, or CSV lines "t,workload" (a header line
// and #-comments are skipped). The format is chosen by content, not
// extension: a leading '[' means JSON.
func LoadTrace(path string) ([]TraceEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: trace: %w", err)
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var events []TraceEvent
		if err := json.Unmarshal(data, &events); err != nil {
			return nil, fmt.Errorf("serve: trace %s: %w", path, err)
		}
		return events, nil
	}
	var events []TraceEvent
	for ln, line := range strings.Split(trimmed, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 2 {
			return nil, fmt.Errorf("serve: trace %s line %d: want \"t,workload\", got %q", path, ln+1, line)
		}
		tf, wf := strings.TrimSpace(fields[0]), strings.TrimSpace(fields[1])
		if ln == 0 && strings.EqualFold(tf, "t") {
			continue // header
		}
		t, err := strconv.ParseFloat(tf, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: trace %s line %d: bad time: %w", path, ln+1, err)
		}
		events = append(events, TraceEvent{T: t, Workload: wf})
	}
	return events, nil
}
