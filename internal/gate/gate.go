// Package gate is the one baseline-diff engine behind the repository's
// three committed-baseline gates (DESIGN.md §9): sweep's modeled
// latencies, hostbench's measured ns/op and allocs/op, and calib's
// model error and fitted constants. Each gate is a thin adapter that
// turns its records into ID-keyed gate Records with named metric
// values and calls Diff; what differs between the gates is data — one
// Policy per Metric, and a warn-only mark per Record — never a branch
// on which caller is asking.
package gate

import (
	"errors"
	"fmt"
	"strings"
)

// Kind selects how a metric's old→new change is measured.
type Kind string

const (
	// Relative compares new/old − 1 against the threshold. A baseline
	// ≤ 0 with any different new value is a regression (change 1): a
	// quantity appearing from zero is unboundedly worse, and a
	// hollowed-out baseline must not pass as unchanged.
	Relative Kind = "relative"
	// Absolute compares the drift new − old against the threshold.
	Absolute Kind = "absolute"
	// Strict is Absolute at threshold 0: any increase regresses.
	Strict Kind = "strict"
)

// Policy classifies one metric's change. A change beyond the threshold
// in the worse (increasing) direction regresses, one beyond it in the
// other direction improves, anything else is unchanged (the gate is a
// strict >). TwoSided metrics have no better direction: a change
// beyond the threshold either way regresses.
type Policy struct {
	Kind      Kind    `json:"kind"`
	Threshold float64 `json:"threshold"`
	TwoSided  bool    `json:"two_sided,omitempty"`
}

// Metric names one gated column, its display unit, and its policy.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"`
	Policy Policy `json:"policy"`
}

// Record is one ID-keyed row of a baseline or a fresh run. Values maps
// metric names to values; a metric the record does not carry is
// absent from the map. A WarnOnly record's regressions become warnings
// (measurements of variable hardware).
type Record struct {
	ID       string
	Values   map[string]float64
	WarnOnly bool
}

// Delta is one (record, metric) comparison.
type Delta struct {
	ID     string  `json:"id"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Change is new/old − 1 under a Relative policy, new − old
	// otherwise.
	Change float64 `json:"change"`
	Class  string  `json:"class"`
}

// Classes of a Delta.
const (
	ClassRegression  = "regression"
	ClassImprovement = "improvement"
	ClassUnchanged   = "unchanged"
	ClassWarning     = "warning"
)

// MetricRef names one metric of one record.
type MetricRef struct {
	ID     string `json:"id"`
	Metric string `json:"metric"`
}

// Result is a classified comparison. Every (ID, metric) pair carried by
// both sides lands in exactly one of Regressions, Improvements,
// Warnings or Unchanged.
type Result struct {
	Gate         string   `json:"gate"`
	Metrics      []Metric `json:"metrics"`
	Regressions  []Delta  `json:"regressions"`
	Improvements []Delta  `json:"improvements"`
	// Warnings are regressions of warn-only records.
	Warnings  []Delta `json:"warnings"`
	Unchanged int     `json:"unchanged"`

	// Coverage drift, never a failure by itself: IDs carried by one
	// side only, and metrics a matched record carries on one side only.
	OnlyInOld       []string    `json:"only_in_old,omitempty"`
	OnlyInNew       []string    `json:"only_in_new,omitempty"`
	MetricOnlyInOld []MetricRef `json:"metric_only_in_old,omitempty"`
	MetricOnlyInNew []MetricRef `json:"metric_only_in_new,omitempty"`

	// EnvWarnings describe baseline-vs-current environment mismatches
	// (hostbench.Environment.Mismatches); never a failure.
	EnvWarnings []string `json:"env_warnings,omitempty"`
}

// ErrDuplicateID reports an ID that occurs twice on one side of a diff.
var ErrDuplicateID = errors.New("gate: duplicate record ID")

// HasRegressions reports whether the gate fails.
func (r Result) HasRegressions() bool { return len(r.Regressions) > 0 }

// classify labels one old→new change under a policy (before a record's
// WarnOnly applies). A negative threshold counts as 0.
func classify(p Policy, old, new float64) (change float64, class string) {
	threshold := max(p.Threshold, 0)
	switch {
	case old == new:
		return 0, ClassUnchanged
	case p.Kind == Relative && old <= 0:
		return 1, ClassRegression
	case p.Kind == Relative:
		change = new/old - 1
	case p.Kind == Strict:
		change, threshold = new-old, 0
	default:
		change = new - old
	}
	switch {
	case change > threshold, p.TwoSided && change < -threshold:
		return change, ClassRegression
	case change < -threshold:
		return change, ClassImprovement
	default:
		return change, ClassUnchanged
	}
}

// Diff compares old and new records matched on ID, classifying every
// metric both sides carry under that metric's policy. Deltas follow
// the new records' order, metrics in definition order, so the result
// is deterministic. An ID repeated on either side is an error wrapping
// ErrDuplicateID.
func Diff(name string, metrics []Metric, old, new []Record) (Result, error) {
	res := Result{Gate: name, Metrics: metrics}
	oldByID, err := index(old, "baseline")
	if err != nil {
		return Result{}, err
	}
	newByID, err := index(new, "new")
	if err != nil {
		return Result{}, err
	}
	for _, n := range new {
		o, ok := oldByID[n.ID]
		if !ok {
			res.OnlyInNew = append(res.OnlyInNew, n.ID)
			continue
		}
		for _, m := range metrics {
			ov, inOld := o.Values[m.Name]
			nv, inNew := n.Values[m.Name]
			switch {
			case !inOld && !inNew: // neither side carries the metric
			case !inOld:
				res.MetricOnlyInNew = append(res.MetricOnlyInNew, MetricRef{n.ID, m.Name})
			case !inNew:
				res.MetricOnlyInOld = append(res.MetricOnlyInOld, MetricRef{n.ID, m.Name})
			default:
				change, class := classify(m.Policy, ov, nv)
				if class == ClassRegression && (o.WarnOnly || n.WarnOnly) {
					class = ClassWarning
				}
				d := Delta{ID: n.ID, Metric: m.Name, Old: ov, New: nv, Change: change, Class: class}
				switch class {
				case ClassRegression:
					res.Regressions = append(res.Regressions, d)
				case ClassImprovement:
					res.Improvements = append(res.Improvements, d)
				case ClassWarning:
					res.Warnings = append(res.Warnings, d)
				default:
					res.Unchanged++
				}
			}
		}
	}
	for _, o := range old {
		if _, ok := newByID[o.ID]; !ok {
			res.OnlyInOld = append(res.OnlyInOld, o.ID)
		}
	}
	return res, nil
}

func index(recs []Record, side string) (map[string]Record, error) {
	byID := make(map[string]Record, len(recs))
	for _, r := range recs {
		if _, dup := byID[r.ID]; dup {
			return nil, fmt.Errorf("%w %q in the %s records", ErrDuplicateID, r.ID, side)
		}
		byID[r.ID] = r
	}
	return byID, nil
}

// Summary renders the human-readable gate report: the verdict, each
// metric's policy, every classified change with its metric's unit, and
// the coverage and environment drift.
func (r Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s diff: %d regression(s), %d improvement(s), %d warning(s), %d unchanged\n",
		r.Gate, len(r.Regressions), len(r.Improvements), len(r.Warnings), r.Unchanged)
	units := make(map[string]Metric, len(r.Metrics))
	for _, m := range r.Metrics {
		units[m.Name] = m
		p := m.Policy
		fmt.Fprintf(&b, "  metric %-20s %s", m.Name, p.Kind)
		if p.Kind != Strict {
			fmt.Fprintf(&b, " threshold %g", max(p.Threshold, 0))
		}
		if p.TwoSided {
			b.WriteString(", either direction")
		}
		b.WriteString("\n")
	}
	deltas := func(label string, ds []Delta) {
		for _, d := range ds {
			m := units[d.Metric]
			val := func(v float64) string {
				return strings.TrimSpace(fmt.Sprintf("%.4g %s", v, m.Unit))
			}
			change := fmt.Sprintf("%+.4g", d.Change)
			if m.Policy.Kind == Relative {
				change = fmt.Sprintf("%+.2f%%", d.Change*100)
			}
			fmt.Fprintf(&b, "  %-11s %-40s %-18s %s → %s (%s)\n",
				label, d.ID, d.Metric, val(d.Old), val(d.New), change)
		}
	}
	deltas("REGRESSION", r.Regressions)
	deltas("improvement", r.Improvements)
	deltas("WARNING", r.Warnings)
	if len(r.OnlyInOld) > 0 {
		fmt.Fprintf(&b, "  only in baseline: %v\n", r.OnlyInOld)
	}
	if len(r.OnlyInNew) > 0 {
		fmt.Fprintf(&b, "  only in new run: %v\n", r.OnlyInNew)
	}
	drift := func(side string, refs []MetricRef) {
		for _, m := range r.Metrics {
			var ids []string
			for _, ref := range refs {
				if ref.Metric == m.Name {
					ids = append(ids, ref.ID)
				}
			}
			if len(ids) > 0 {
				fmt.Fprintf(&b, "  %s only in %s: %v\n", m.Name, side, ids)
			}
		}
	}
	drift("baseline", r.MetricOnlyInOld)
	drift("new run", r.MetricOnlyInNew)
	for _, w := range r.EnvWarnings {
		fmt.Fprintf(&b, "  WARNING environment mismatch — %s\n", w)
	}
	return b.String()
}
