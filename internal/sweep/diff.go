package sweep

import (
	"fmt"
	"strings"
)

// Diffing turns the sweep into a perf-regression oracle: CI runs a
// fresh sweep, diffs it against the committed BENCH_baseline.json, and
// fails when any modeled latency regressed beyond the threshold
// (DESIGN.md §9).

// Delta is one record's old-vs-new comparison on one metric.
type Delta struct {
	ID     string  `json:"id"`
	Metric string  `json:"metric"` // "total_s" | "overlapped_s"
	OldS   float64 `json:"old_s"`
	NewS   float64 `json:"new_s"`
	Rel    float64 `json:"rel"`   // NewS/OldS − 1 (signed fractional change)
	Class  string  `json:"class"` // "regression" | "improvement" | "unchanged"
}

// Delta classes.
const (
	ClassRegression  = "regression"
	ClassImprovement = "improvement"
	ClassUnchanged   = "unchanged"
)

// Gated metrics.
const (
	MetricTotal      = "total_s"
	MetricOverlapped = "overlapped_s"
)

// DiffResult is the classified comparison of two sweeps.
type DiffResult struct {
	Threshold    float64 `json:"threshold"`
	Regressions  []Delta `json:"regressions"`  // slower than old by > threshold
	Improvements []Delta `json:"improvements"` // faster than old by > threshold
	Unchanged    int     `json:"unchanged"`    // within ± threshold

	// Coverage drift: IDs present in only one sweep (axis added or
	// removed). Not a gate failure by itself, but surfaced so a
	// baseline refresh isn't silent.
	OnlyInOld []string `json:"only_in_old,omitempty"`
	OnlyInNew []string `json:"only_in_new,omitempty"`

	// Metric-level coverage drift: IDs whose overlapped_s column is
	// carried by only one side (a baseline predating the column, or a
	// new sweep that dropped it). Classifying such a pair through the
	// zero-baseline rule would spuriously gate every record — or,
	// worse, silently skip the metric — so it is surfaced as drift
	// instead (the bug the schema migration exposed).
	OverlappedOnlyInOld []string `json:"overlapped_only_in_old,omitempty"`
	OverlappedOnlyInNew []string `json:"overlapped_only_in_new,omitempty"`
}

// HasRegressions reports whether any latency regressed beyond the
// threshold — the CI gate condition.
func (d DiffResult) HasRegressions() bool { return len(d.Regressions) > 0 }

// Summary renders a human-readable gate report.
func (d DiffResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep diff @ threshold %.2f%%: %d regression(s), %d improvement(s), %d unchanged\n",
		d.Threshold*100, len(d.Regressions), len(d.Improvements), d.Unchanged)
	for _, r := range d.Regressions {
		fmt.Fprintf(&b, "  REGRESSION  %-40s %-12s %.4g s → %.4g s (%+.2f%%)\n", r.ID, r.Metric, r.OldS, r.NewS, r.Rel*100)
	}
	for _, r := range d.Improvements {
		fmt.Fprintf(&b, "  improvement %-40s %-12s %.4g s → %.4g s (%+.2f%%)\n", r.ID, r.Metric, r.OldS, r.NewS, r.Rel*100)
	}
	if len(d.OnlyInOld) > 0 {
		fmt.Fprintf(&b, "  only in baseline: %v\n", d.OnlyInOld)
	}
	if len(d.OnlyInNew) > 0 {
		fmt.Fprintf(&b, "  only in new sweep: %v\n", d.OnlyInNew)
	}
	if len(d.OverlappedOnlyInOld) > 0 {
		fmt.Fprintf(&b, "  overlapped_s only in baseline: %v\n", d.OverlappedOnlyInOld)
	}
	if len(d.OverlappedOnlyInNew) > 0 {
		fmt.Fprintf(&b, "  overlapped_s only in new sweep: %v\n", d.OverlappedOnlyInNew)
	}
	return b.String()
}

// Classify labels one old→new latency change against the fractional
// threshold. A non-positive baseline with any different new value is a
// regression (a latency appearing from zero is unboundedly worse — a
// hollowed-out baseline must not classify as unchanged). This is the
// shared gate semantics: hostbench.Diff classifies its wall-clock
// deltas through the same function.
func Classify(oldS, newS, threshold float64) (rel float64, class string) {
	switch {
	case oldS == newS:
		return 0, ClassUnchanged
	case oldS <= 0:
		return 1, ClassRegression
	}
	rel = newS/oldS - 1
	switch {
	case rel > threshold:
		return rel, ClassRegression
	case rel < -threshold:
		return rel, ClassImprovement
	default:
		return rel, ClassUnchanged
	}
}

// Diff compares two sweeps record-by-record (matched on ID) and
// classifies each latency change against the fractional threshold
// (0.005 = 0.5%). Both metrics are classified: total_s always, and
// overlapped_s when both sides carry the column (a record whose
// overlapped_s exists on only one side is metric-level coverage
// drift — see DiffResult — never a zero-baseline regression or a
// silent skip). Records appearing in only one sweep are reported, not
// classified. Deltas preserve the new sweep's record order, so the
// result is deterministic.
func Diff(old, new []Record, threshold float64) DiffResult {
	if threshold < 0 {
		threshold = 0
	}
	d := DiffResult{Threshold: threshold}

	classify := func(id, metric string, oldS, newS float64) {
		rel, class := Classify(oldS, newS, threshold)
		delta := Delta{ID: id, Metric: metric, OldS: oldS, NewS: newS, Rel: rel, Class: class}
		switch class {
		case ClassRegression:
			d.Regressions = append(d.Regressions, delta)
		case ClassImprovement:
			d.Improvements = append(d.Improvements, delta)
		default:
			d.Unchanged++
		}
	}

	oldByID := make(map[string]Record, len(old))
	for _, r := range old {
		oldByID[r.ID] = r
	}
	seen := make(map[string]bool, len(new))
	for _, r := range new {
		seen[r.ID] = true
		o, ok := oldByID[r.ID]
		if !ok {
			d.OnlyInNew = append(d.OnlyInNew, r.ID)
			continue
		}
		classify(r.ID, MetricTotal, o.TotalS, r.TotalS)
		switch {
		case o.OverlappedS == 0 && r.OverlappedS == 0:
			// Neither side carries the column — nothing to compare.
		case o.OverlappedS == 0:
			d.OverlappedOnlyInNew = append(d.OverlappedOnlyInNew, r.ID)
		case r.OverlappedS == 0:
			d.OverlappedOnlyInOld = append(d.OverlappedOnlyInOld, r.ID)
		default:
			classify(r.ID, MetricOverlapped, o.OverlappedS, r.OverlappedS)
		}
	}
	for _, r := range old {
		if !seen[r.ID] {
			d.OnlyInOld = append(d.OnlyInOld, r.ID)
		}
	}
	return d
}
