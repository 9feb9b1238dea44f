package sweep

import (
	"math"
	"testing"

	"cross/internal/gate"
)

// rec builds a minimal record for diff tests.
func rec(id string, total float64) Record {
	return Record{ID: id, TotalS: total}
}

// mustDiff is Diff for inputs without duplicate IDs.
func mustDiff(t *testing.T, old, new []Record, threshold float64) gate.Result {
	t.Helper()
	d, err := Diff(old, new, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiffClassification is the gate's acceptance check: an injected
// +1% latency is flagged as a regression and a −1% is reported as an
// improvement at the CI threshold of 0.5%.
func TestDiffClassification(t *testing.T) {
	const threshold = 0.005
	old := []Record{
		rec("SetD/TPUv6e-1/HE-Mult", 100e-6),
		rec("SetD/TPUv6e-1/Rotate", 50e-6),
		rec("SetD/TPUv6e-1/MNIST", 2e-3),
	}
	newer := []Record{
		rec("SetD/TPUv6e-1/HE-Mult", 101e-6), // +1% → regression
		rec("SetD/TPUv6e-1/Rotate", 49.5e-6), // −1% → improvement
		rec("SetD/TPUv6e-1/MNIST", 2e-3),     // unchanged
	}

	d := mustDiff(t, old, newer, threshold)
	if !d.HasRegressions() {
		t.Fatal("+1% latency not flagged as regression")
	}
	if len(d.Regressions) != 1 || d.Regressions[0].ID != "SetD/TPUv6e-1/HE-Mult" || d.Regressions[0].Metric != MetricTotal {
		t.Errorf("regressions = %+v, want exactly the +1%% total_s record", d.Regressions)
	}
	if got := d.Regressions[0].Change; math.Abs(got-0.01) > 1e-9 {
		t.Errorf("regression rel = %g, want 0.01", got)
	}
	if len(d.Improvements) != 1 || d.Improvements[0].ID != "SetD/TPUv6e-1/Rotate" {
		t.Errorf("improvements = %+v, want exactly the −1%% record", d.Improvements)
	}
	if got := d.Improvements[0].Change; math.Abs(got+0.01) > 1e-9 {
		t.Errorf("improvement rel = %g, want −0.01", got)
	}
	if d.Unchanged != 1 {
		t.Errorf("unchanged = %d, want 1", d.Unchanged)
	}
}

// TestDiffThresholdBoundary: drift within ±threshold is unchanged;
// beyond it is classified.
func TestDiffThresholdBoundary(t *testing.T) {
	const threshold = 0.005
	cases := []struct {
		name  string
		newS  float64
		class string
	}{
		{"well within", 100.2e-6, gate.ClassUnchanged},
		{"exactly at threshold", 100.5e-6, gate.ClassUnchanged}, // gate is strict >
		{"just beyond", 100.6e-6, gate.ClassRegression},
		{"faster within", 99.6e-6, gate.ClassUnchanged},
		{"faster beyond", 99.4e-6, gate.ClassImprovement},
	}
	for _, tc := range cases {
		d := mustDiff(t, []Record{rec("x", 100e-6)}, []Record{rec("x", tc.newS)}, threshold)
		var got string
		switch {
		case len(d.Regressions) == 1:
			got = gate.ClassRegression
		case len(d.Improvements) == 1:
			got = gate.ClassImprovement
		case d.Unchanged == 1:
			got = gate.ClassUnchanged
		}
		if got != tc.class {
			t.Errorf("%s (%.4g): classified %q, want %q", tc.name, tc.newS, got, tc.class)
		}
	}
}

// TestDiffCoverageDrift: IDs on one side only are surfaced, not
// classified, and never gate.
func TestDiffCoverageDrift(t *testing.T) {
	old := []Record{rec("kept", 1), rec("removed", 1)}
	newer := []Record{rec("kept", 1), rec("added", 1)}
	d := mustDiff(t, old, newer, 0.005)
	if d.HasRegressions() {
		t.Error("coverage drift must not gate")
	}
	if len(d.OnlyInOld) != 1 || d.OnlyInOld[0] != "removed" {
		t.Errorf("OnlyInOld = %v", d.OnlyInOld)
	}
	if len(d.OnlyInNew) != 1 || d.OnlyInNew[0] != "added" {
		t.Errorf("OnlyInNew = %v", d.OnlyInNew)
	}
	if d.Unchanged != 1 {
		t.Errorf("unchanged = %d, want 1", d.Unchanged)
	}
}

// TestDiffZeroBaseline: a latency appearing from zero is a regression
// (guards against a hollowed-out baseline silently passing).
func TestDiffZeroBaseline(t *testing.T) {
	d := mustDiff(t, []Record{rec("x", 0)}, []Record{rec("x", 1e-6)}, 0.005)
	if !d.HasRegressions() {
		t.Error("0 → 1µs not flagged")
	}
	d = mustDiff(t, []Record{rec("x", 0)}, []Record{rec("x", 0)}, 0.005)
	if d.HasRegressions() || d.Unchanged != 1 {
		t.Error("0 → 0 must be unchanged")
	}
}

// TestClassifyEdgeCases pins the relative policy's corner semantics on
// total_s: zero and negative baselines regress (unless bit-equal), and
// a negative threshold counts as 0, so exact equality is still
// unchanged and any drift classifies by its direction.
func TestClassifyEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		oldS, newS float64
		threshold  float64
		wantChange float64
		wantClass  string
	}{
		{"zero to positive", 0, 1e-6, 0.005, 1, gate.ClassRegression},
		{"zero to zero", 0, 0, 0.005, 0, gate.ClassUnchanged},
		{"negative baseline", -1e-6, 1e-6, 0.005, 1, gate.ClassRegression},
		{"equal values", 42e-6, 42e-6, 0.005, 0, gate.ClassUnchanged},
		{"negative threshold, equal", 1, 1, -0.5, 0, gate.ClassUnchanged},
		{"negative threshold, increase", 100e-6, 100.0001e-6, -1, 1e-6, gate.ClassRegression},
		{"negative threshold, decrease", 100e-6, 99.9999e-6, -1, -1e-6, gate.ClassImprovement},
	}
	for _, tc := range cases {
		d := mustDiff(t, []Record{rec("x", tc.oldS)}, []Record{rec("x", tc.newS)}, tc.threshold)
		changed := append(append(d.Regressions, d.Improvements...), d.Warnings...)
		switch {
		case len(changed) == 0 && d.Unchanged == 1:
			if tc.wantClass != gate.ClassUnchanged {
				t.Errorf("%s: unchanged, want %q", tc.name, tc.wantClass)
			}
		case len(changed) == 1:
			if changed[0].Class != tc.wantClass || math.Abs(changed[0].Change-tc.wantChange) > 1e-9 {
				t.Errorf("%s: %q change %g, want %q change %g", tc.name, changed[0].Class, changed[0].Change, tc.wantClass, tc.wantChange)
			}
		default:
			t.Errorf("%s: %+v", tc.name, d)
		}
	}
}

// TestDiffRealSweepSelfCompare: a sweep diffed against itself is clean
// — the no-change CI run goes green.
func TestDiffRealSweepSelfCompare(t *testing.T) {
	recs, err := Run(Config{
		Sets:     []string{"A", "C"},
		Specs:    []string{"TPUv6e"},
		Cores:    []int{1, 8},
		Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := mustDiff(t, recs, recs, 0.005)
	if d.HasRegressions() || len(d.Improvements) != 0 || len(d.OnlyInOld) != 0 || len(d.OnlyInNew) != 0 {
		t.Errorf("self-compare not clean: %s", d.Summary())
	}
	if len(d.MetricOnlyInOld) != 0 || len(d.MetricOnlyInNew) != 0 {
		t.Errorf("self-compare reports overlapped coverage drift: %s", d.Summary())
	}
	// Every real record carries both metrics, so each contributes two
	// unchanged comparisons (total_s and overlapped_s).
	if d.Unchanged != 2*len(recs) {
		t.Errorf("unchanged = %d, want %d", d.Unchanged, 2*len(recs))
	}
}

// TestDiffOverlappedClassified: the overlapped_s column gates like
// total_s — a +1% overlapped regression with an unchanged total is
// still a gate failure, tagged with its metric.
func TestDiffOverlappedClassified(t *testing.T) {
	old := []Record{{ID: "x", TotalS: 100e-6, OverlappedS: 80e-6}}
	newer := []Record{{ID: "x", TotalS: 100e-6, OverlappedS: 80.8e-6}}
	d := mustDiff(t, old, newer, 0.005)
	if !d.HasRegressions() {
		t.Fatal("+1% overlapped_s not flagged as regression")
	}
	if len(d.Regressions) != 1 || d.Regressions[0].Metric != MetricOverlapped {
		t.Errorf("regressions = %+v, want exactly one overlapped_s delta", d.Regressions)
	}
	if d.Unchanged != 1 { // the total_s comparison
		t.Errorf("unchanged = %d, want 1", d.Unchanged)
	}
}

// TestDiffOverlappedSchemaMigration pins the coverage-drift bugfix: a
// baseline predating the overlapped_s column (OverlappedS == 0) must
// neither spuriously gate every record through the zero-baseline
// regression rule nor silently skip the metric — it is surfaced as
// metric-level coverage drift. Symmetrically for a new sweep that
// dropped the column.
func TestDiffOverlappedSchemaMigration(t *testing.T) {
	// Old baseline without the column vs new sweep with it.
	old := []Record{{ID: "x", TotalS: 100e-6}}
	newer := []Record{{ID: "x", TotalS: 100e-6, OverlappedS: 80e-6}}
	d := mustDiff(t, old, newer, 0.005)
	if d.HasRegressions() {
		t.Errorf("missing baseline column gated as regression: %s", d.Summary())
	}
	if want := (gate.MetricRef{ID: "x", Metric: MetricOverlapped}); len(d.MetricOnlyInNew) != 1 || d.MetricOnlyInNew[0] != want {
		t.Errorf("MetricOnlyInNew = %v, want [%v]", d.MetricOnlyInNew, want)
	}

	// New sweep that hollowed the column out: must not classify 80µs→0
	// as an improvement.
	d = mustDiff(t, newer, old, 0.005)
	if len(d.Improvements) != 0 {
		t.Errorf("hollowed-out overlapped column classified as improvement: %+v", d.Improvements)
	}
	if want := (gate.MetricRef{ID: "x", Metric: MetricOverlapped}); len(d.MetricOnlyInOld) != 1 || d.MetricOnlyInOld[0] != want {
		t.Errorf("MetricOnlyInOld = %v, want [%v]", d.MetricOnlyInOld, want)
	}

	// Neither side carries the column: nothing to compare, no drift.
	d = mustDiff(t, []Record{rec("x", 1)}, []Record{rec("x", 1)}, 0.005)
	if len(d.MetricOnlyInOld) != 0 || len(d.MetricOnlyInNew) != 0 {
		t.Errorf("column-free records report overlapped drift: %s", d.Summary())
	}
	if d.Unchanged != 1 {
		t.Errorf("unchanged = %d, want 1", d.Unchanged)
	}
}
