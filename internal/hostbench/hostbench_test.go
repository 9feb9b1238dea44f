package hostbench

import (
	"testing"

	"cross/internal/gate"
)

func rec(id string, ns, allocs float64) Record {
	return Record{ID: id, NsPerOp: ns, AllocsPerOp: allocs}
}

// diff is DiffFiles over bare records for inputs without duplicate IDs.
func diff(t *testing.T, old, new []Record, threshold float64) gate.Result {
	t.Helper()
	d, err := DiffFiles(File{Records: old}, File{Records: new}, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// ids lists the deltas' "id metric" keys.
func ids(ds []gate.Delta) map[string]bool {
	m := make(map[string]bool, len(ds))
	for _, d := range ds {
		m[d.ID+" "+d.Metric] = true
	}
	return m
}

func TestDiffClassification(t *testing.T) {
	old := []Record{
		rec("a", 100, 0), rec("b", 100, 0), rec("c", 100, 0),
		rec("d", 100, 2), rec("gone", 50, 0),
	}
	cur := []Record{
		rec("a", 110, 0),  // +10% < threshold → unchanged
		rec("b", 160, 0),  // +60% → regression
		rec("c", 100, 1),  // allocs drifted 0→1 → regression despite flat ns
		rec("d", 10, 1),   // faster AND fewer allocs → improvement on both
		rec("new", 10, 0), // coverage drift
	}
	d := diff(t, old, cur, 0.25)
	if !d.HasRegressions() {
		t.Fatal("expected regressions")
	}
	got := ids(d.Regressions)
	if len(d.Regressions) != 2 || !got["b "+metricNs] || !got["c "+metricAllocs] {
		t.Fatalf("regressions = %+v, want b (ns) and c (allocs)", d.Regressions)
	}
	got = ids(d.Improvements)
	if len(d.Improvements) != 2 || !got["d "+metricNs] || !got["d "+metricAllocs] {
		t.Fatalf("improvements = %+v, want d on both metrics", d.Improvements)
	}
	// a on both metrics, b's allocs, c's ns.
	if d.Unchanged != 4 {
		t.Fatalf("unchanged = %d, want 4", d.Unchanged)
	}
	if len(d.OnlyInOld) != 1 || d.OnlyInOld[0] != "gone" {
		t.Fatalf("onlyInOld = %v", d.OnlyInOld)
	}
	if len(d.OnlyInNew) != 1 || d.OnlyInNew[0] != "new" {
		t.Fatalf("onlyInNew = %v", d.OnlyInNew)
	}
}

func TestDiffAllocsStrictAtZeroThreshold(t *testing.T) {
	// Even with a huge ns threshold, one extra alloc/op must gate.
	d := diff(t, []Record{rec("k", 100, 0)}, []Record{rec("k", 100, 0.5)}, 10)
	if !d.HasRegressions() || d.Regressions[0].Metric != metricAllocs {
		t.Fatalf("alloc drift must be a regression at any ns threshold: %+v", d.Regressions)
	}
}

func TestDiffZeroBaselineGates(t *testing.T) {
	// Regression test for the gate hole: a baseline record with
	// NsPerOp <= 0 used to leave the relative change at 0, so ANY new
	// latency classified as unchanged and the gate passed silently. A
	// latency appearing from a non-positive baseline is a regression.
	for _, oldNs := range []float64{0, -1} {
		d := diff(t, []Record{rec("k", oldNs, 0)}, []Record{rec("k", 5000, 0)}, 0.25)
		if !d.HasRegressions() {
			t.Errorf("baseline %g ns → 5000 ns not flagged as regression", oldNs)
		}
		if len(d.Regressions) == 1 && d.Regressions[0].Change != 1 {
			t.Errorf("baseline %g ns: change = %g, want sentinel 1", oldNs, d.Regressions[0].Change)
		}
	}
	// 0 → 0 stays unchanged on both metrics.
	d := diff(t, []Record{rec("k", 0, 0)}, []Record{rec("k", 0, 0)}, 0.25)
	if d.HasRegressions() || d.Unchanged != 2 {
		t.Errorf("0 → 0 must be unchanged: %+v", d)
	}
}

func TestDiffIdenticalRunsClean(t *testing.T) {
	rs := []Record{rec("x", 123, 0), rec("y", 456, 3)}
	d := diff(t, rs, rs, 0.25)
	if d.HasRegressions() || len(d.Improvements) != 0 || d.Unchanged != 4 {
		t.Fatalf("self-diff not clean: %+v", d)
	}
}
