package tpusim

import (
	"fmt"
	"sort"
	"strings"
)

// Category labels match the paper's Fig. 12 latency-breakdown legend so
// that the profiler output can be compared side by side. The vocabulary
// is shared across hardware backends (tpusim, gpusim): every backend
// charges the same compute categories so breakdowns compare across
// hardware, and each interconnect charges its own collective label
// (CatICI for the TPU fabric, CatNVLink for the GPU node fabric).
const (
	CatNTTMatMul   = "NTT-MatMul"
	CatINTTMatMul  = "INTT-MatMul"
	CatBConvMatMul = "BConv-MatMul"
	CatVecModOps   = "VecModOps"
	CatPermutation = "Permutation"
	CatTypeConv    = "Type Conversion"
	CatCopyReshape = "Copy+Reshape"
	CatHBM         = "HBM Traffic"
	CatICI         = "ICI Collective"
	CatNVLink      = "NVLink Collective"
	CatOther       = "Other"
)

// Trace accumulates simulated time per category — the reproduction's
// stand-in for the XLA profiler's trace viewer (§V-A methodology).
type Trace struct {
	seconds  map[string]float64
	order    []string
	observer func(category string, seconds float64)
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{seconds: make(map[string]float64)}
}

// Observe installs f as the trace's segment observer: every subsequent
// Add is reported to f in charge order, before the category total
// updates. This is the hook the compiler's DAG builder uses to turn a
// lowering's additive charge stream into dependency-DAG nodes; pass nil
// to detach. A trace has at most one observer and is not synchronised —
// observation is only meaningful while the trace is charged from a
// single goroutine (which the compiler's per-lowering lock guarantees).
func (t *Trace) Observe(f func(category string, seconds float64)) {
	t.observer = f
}

// Add charges d seconds to a category.
func (t *Trace) Add(category string, d float64) {
	if t.observer != nil {
		t.observer(category, d)
	}
	if _, ok := t.seconds[category]; !ok {
		t.order = append(t.order, category)
	}
	t.seconds[category] += d
}

// Total returns the summed simulated seconds.
func (t *Trace) Total() float64 {
	var s float64
	for _, v := range t.seconds {
		s += v
	}
	return s
}

// Seconds returns the time charged to one category.
func (t *Trace) Seconds(category string) float64 { return t.seconds[category] }

// Categories returns the charged categories in first-charge order — the
// deterministic iteration order map-based ByCategory cannot give.
func (t *Trace) Categories() []string {
	return append([]string(nil), t.order...)
}

// ByCategory returns a copy of the category map.
func (t *Trace) ByCategory() map[string]float64 {
	out := make(map[string]float64, len(t.seconds))
	for k, v := range t.seconds {
		out[k] = v
	}
	return out
}

// Reset clears the trace.
func (t *Trace) Reset() {
	t.seconds = make(map[string]float64)
	t.order = nil
}

// Breakdown renders the trace as percentage lines sorted by share,
// mirroring Fig. 12's horizontal bars.
func (t *Trace) Breakdown() string {
	total := t.Total()
	if total == 0 {
		return "(empty trace)"
	}
	cats := append([]string(nil), t.order...)
	sort.Slice(cats, func(i, j int) bool {
		return t.seconds[cats[i]] > t.seconds[cats[j]]
	})
	var b strings.Builder
	for _, c := range cats {
		fmt.Fprintf(&b, "%-16s %6.2f%%  (%.2f µs)\n", c, 100*t.seconds[c]/total, t.seconds[c]*1e6)
	}
	return b.String()
}
