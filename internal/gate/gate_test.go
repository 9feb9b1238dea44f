package gate

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func rec(id string, kv ...any) Record {
	r := Record{ID: id, Values: map[string]float64{}}
	for i := 0; i < len(kv); i += 2 {
		r.Values[kv[i].(string)] = kv[i+1].(float64)
	}
	return r
}

func mustDiff(t *testing.T, metrics []Metric, old, new []Record) Result {
	t.Helper()
	d, err := Diff("test", metrics, old, new)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestClassifyPolicies pins each policy kind's arithmetic, its
// threshold boundary (a strict >), and the relative zero-baseline rule.
func TestClassifyPolicies(t *testing.T) {
	rel := Policy{Kind: Relative, Threshold: 0.25}
	abs := Policy{Kind: Absolute, Threshold: 0.1}
	two := Policy{Kind: Relative, Threshold: 0.1, TwoSided: true}
	strict := Policy{Kind: Strict, Threshold: 5} // the threshold does not apply
	for _, tc := range []struct {
		name       string
		p          Policy
		old, new   float64
		wantChange float64
		wantClass  string
	}{
		{"relative within", rel, 100, 109, 0.09, ClassUnchanged},
		{"relative at threshold", rel, 4, 5, 0.25, ClassUnchanged},
		{"relative beyond", rel, 100, 130, 0.3, ClassRegression},
		{"relative faster", rel, 100, 70, -0.3, ClassImprovement},
		{"relative zero baseline", rel, 0, 1, 1, ClassRegression},
		{"relative zero baseline, lower new", rel, 0, -1, 1, ClassRegression},
		{"relative negative baseline", rel, -2, 1, 1, ClassRegression},
		{"relative zero to zero", rel, 0, 0, 0, ClassUnchanged},
		{"relative negative threshold", Policy{Kind: Relative, Threshold: -1}, 100, 100.01, 1e-4, ClassRegression},
		{"absolute within", abs, 0.05, 0.14, 0.09, ClassUnchanged},
		{"absolute beyond", abs, 0.05, 0.30, 0.25, ClassRegression},
		{"absolute improvement", abs, 0.30, 0.05, -0.25, ClassImprovement},
		{"absolute from zero", abs, 0, 0.05, 0.05, ClassUnchanged},
		{"strict increase", strict, 0, 0.5, 0.5, ClassRegression},
		{"strict decrease", strict, 2, 1, -1, ClassImprovement},
		{"two-sided rise", two, 2, 4, 1, ClassRegression},
		{"two-sided fall", two, 2, 1, -0.5, ClassRegression},
		{"two-sided within", two, 2, 2.1, 0.05, ClassUnchanged},
	} {
		change, class := classify(tc.p, tc.old, tc.new)
		if class != tc.wantClass || math.Abs(change-tc.wantChange) > 1e-9 {
			t.Errorf("%s: %q change %g, want %q change %g", tc.name, class, change, tc.wantClass, tc.wantChange)
		}
	}
}

// TestDiffWarnOnly: a warn-only record's regressions become warnings;
// its improvements stay improvements.
func TestDiffWarnOnly(t *testing.T) {
	metrics := []Metric{
		{Name: "a", Policy: Policy{Kind: Relative, Threshold: 0.1}},
		{Name: "b", Policy: Policy{Kind: Relative, Threshold: 0.1}},
	}
	host := rec("host", "a", 1.0, "b", 1.0)
	host.WarnOnly = true
	hostNew := rec("host", "a", 2.0, "b", 0.5)
	hostNew.WarnOnly = true
	old := []Record{rec("pub", "a", 1.0, "b", 1.0), host}
	cur := []Record{rec("pub", "a", 2.0, "b", 1.0), hostNew}
	d := mustDiff(t, metrics, old, cur)
	if len(d.Regressions) != 1 || d.Regressions[0] != (Delta{ID: "pub", Metric: "a", Old: 1, New: 2, Change: 1, Class: ClassRegression}) {
		t.Errorf("regressions = %+v, want pub/a only", d.Regressions)
	}
	if len(d.Warnings) != 1 || d.Warnings[0].ID != "host" || d.Warnings[0].Metric != "a" || d.Warnings[0].Class != ClassWarning {
		t.Errorf("warnings = %+v, want host/a", d.Warnings)
	}
	if len(d.Improvements) != 1 || d.Improvements[0].ID != "host" || d.Improvements[0].Metric != "b" {
		t.Errorf("improvements = %+v, want host/b", d.Improvements)
	}
	if d.Unchanged != 1 {
		t.Errorf("unchanged = %d, want 1 (pub/b)", d.Unchanged)
	}
}

// TestDiffCoverage: IDs and metrics carried by one side only are
// reported, in order, and never classified.
func TestDiffCoverage(t *testing.T) {
	metrics := []Metric{{Name: "a", Policy: Policy{Kind: Relative}}, {Name: "b", Policy: Policy{Kind: Relative}}}
	old := []Record{rec("kept", "a", 1.0, "b", 1.0), rec("gone", "a", 1.0), rec("thin", "a", 1.0)}
	cur := []Record{rec("added", "a", 1.0), rec("kept", "a", 1.0), rec("thin", "a", 1.0, "b", 1.0)}
	d := mustDiff(t, metrics, old, cur)
	if fmt.Sprint(d.OnlyInOld) != "[gone]" || fmt.Sprint(d.OnlyInNew) != "[added]" {
		t.Errorf("OnlyInOld %v, OnlyInNew %v", d.OnlyInOld, d.OnlyInNew)
	}
	if len(d.MetricOnlyInOld) != 1 || d.MetricOnlyInOld[0] != (MetricRef{"kept", "b"}) {
		t.Errorf("MetricOnlyInOld = %v", d.MetricOnlyInOld)
	}
	if len(d.MetricOnlyInNew) != 1 || d.MetricOnlyInNew[0] != (MetricRef{"thin", "b"}) {
		t.Errorf("MetricOnlyInNew = %v", d.MetricOnlyInNew)
	}
	if d.HasRegressions() || d.Unchanged != 2 {
		t.Errorf("coverage drift classified: %+v", d)
	}
	s := d.Summary()
	for _, want := range []string{"only in baseline: [gone]", "only in new run: [added]", "b only in baseline: [kept]", "b only in new run: [thin]"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary lacks %q:\n%s", want, s)
		}
	}
}

// TestDiffDuplicateID: an ID repeated on either side is an error naming
// the ID and the side, never a silently dropped or twice-counted row.
func TestDiffDuplicateID(t *testing.T) {
	metrics := []Metric{{Name: "a", Policy: Policy{Kind: Relative}}}
	one := []Record{rec("x", "a", 1.0), rec("y", "a", 1.0)}
	dup := []Record{rec("x", "a", 1.0), rec("y", "a", 2.0), rec("x", "a", 3.0)}
	for _, tc := range []struct {
		side     string
		old, new []Record
	}{
		{"baseline", dup, one},
		{"new", one, dup},
	} {
		_, err := Diff("test", metrics, tc.old, tc.new)
		if !errors.Is(err, ErrDuplicateID) {
			t.Errorf("%s side: err = %v, want ErrDuplicateID", tc.side, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `"x"`) || !strings.Contains(msg, tc.side) {
			t.Errorf("%s side: error %q does not name the ID and the side", tc.side, msg)
		}
	}
}

// TestSummary renders each delta with its metric's unit and change
// format, and the environment warnings.
func TestSummary(t *testing.T) {
	metrics := []Metric{
		{Name: "ns_per_op", Unit: "ns", Policy: Policy{Kind: Relative, Threshold: 0.25}},
		{Name: "allocs_per_op", Policy: Policy{Kind: Strict}},
	}
	d := mustDiff(t, metrics, []Record{rec("k", "ns_per_op", 100.0, "allocs_per_op", 0.0)},
		[]Record{rec("k", "ns_per_op", 200.0, "allocs_per_op", 1.0)})
	d.EnvWarnings = []string{"num_cpu: baseline 1 vs current 2"}
	s := d.Summary()
	for _, want := range []string{
		"test diff: 2 regression(s), 0 improvement(s), 0 warning(s), 0 unchanged",
		"ns_per_op            relative threshold 0.25",
		"allocs_per_op        strict",
		"100 ns → 200 ns (+100.00%)",
		"0 → 1 (+1)",
		"WARNING environment mismatch — num_cpu",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary lacks %q:\n%s", want, s)
		}
	}
}

// FuzzGateDiff draws old and new record sets and metric policies from
// the input and checks that every (ID, metric) pair both sides carry
// lands in exactly one class, that the counts partition, that repeated
// IDs are rejected, and that a self-compare is clean.
func FuzzGateDiff(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 5, 9, 17, 33, 4, 200, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x21, 0x14, 0x0a, 0x55, 0xf0, 0x3c, 0x99, 0x42, 0x17, 0x08, 0x61, 0x2e, 0xb3, 0x70})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		kinds := []Kind{Relative, Absolute, Strict}
		thresholds := []float64{-0.1, 0, 0.005, 0.25, 1}
		values := []float64{0, -1, 1, 1.004, 1.1, 2, 100}
		metrics := make([]Metric, 1+next()%3)
		for i := range metrics {
			b := next()
			metrics[i] = Metric{Name: fmt.Sprintf("m%d", i), Policy: Policy{
				Kind: kinds[b%3], Threshold: thresholds[(b/3)%5],
				TwoSided: b&0x20 != 0,
			}}
		}
		draw := func() (recs []Record, dup bool) {
			seen := map[string]bool{}
			for n := next() % 6; n > 0; n-- {
				b := next()
				r := Record{ID: fmt.Sprintf("r%d", b%5), Values: map[string]float64{}, WarnOnly: b&0x80 != 0}
				dup = dup || seen[r.ID]
				seen[r.ID] = true
				for _, m := range metrics {
					if v := next(); v%4 != 0 {
						r.Values[m.Name] = values[v%7]
					}
				}
				recs = append(recs, r)
			}
			return recs, dup
		}
		old, oldDup := draw()
		cur, newDup := draw()

		d, err := Diff("fuzz", metrics, old, cur)
		if oldDup || newDup {
			if !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("duplicate IDs (old %v, new %v): err = %v", oldDup, newDup, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}

		oldBy := map[string]Record{}
		for _, r := range old {
			oldBy[r.ID] = r
		}
		matched := map[MetricRef]bool{}
		for _, n := range cur {
			o, ok := oldBy[n.ID]
			if !ok {
				continue
			}
			for _, m := range metrics {
				_, a := o.Values[m.Name]
				_, b := n.Values[m.Name]
				if a && b {
					matched[MetricRef{n.ID, m.Name}] = true
				}
			}
		}
		classed := map[MetricRef]string{}
		for class, ds := range map[string][]Delta{
			ClassRegression: d.Regressions, ClassImprovement: d.Improvements, ClassWarning: d.Warnings,
		} {
			for _, x := range ds {
				ref := MetricRef{x.ID, x.Metric}
				if !matched[ref] {
					t.Fatalf("%v classified but not carried by both sides", ref)
				}
				if prev, dup := classed[ref]; dup {
					t.Fatalf("%v classified twice: %s and %s", ref, prev, class)
				}
				if x.Class != class {
					t.Fatalf("%v in the %s list carries class %s", ref, class, x.Class)
				}
				classed[ref] = class
			}
		}
		if got := len(classed) + d.Unchanged; got != len(matched) {
			t.Fatalf("classes sum to %d, want the %d matched pairs: %+v", got, len(matched), d)
		}

		self, err := Diff("fuzz", metrics, old, old)
		if err != nil {
			t.Fatal(err)
		}
		carried := 0
		for _, r := range old {
			for _, m := range metrics {
				if _, ok := r.Values[m.Name]; ok {
					carried++
				}
			}
		}
		if len(self.Regressions)+len(self.Improvements)+len(self.Warnings) != 0 || self.Unchanged != carried ||
			len(self.OnlyInOld)+len(self.OnlyInNew)+len(self.MetricOnlyInOld)+len(self.MetricOnlyInNew) != 0 {
			t.Fatalf("self-compare not clean: %+v", self)
		}
	})
}
