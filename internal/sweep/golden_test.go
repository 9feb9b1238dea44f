package sweep

import (
	"encoding/json"
	"os"
	"testing"

	"cross/internal/cross"
)

// TestGoldenSerialEquivalence is the refactor's safety net: the full
// 700-case sweep (SetA–D × all 7 registered devices × {1,2,4,8,16}
// cores × all 5 workloads) re-lowered through the DAG-building
// Schedule IR must reproduce the committed BENCH_baseline.json serial
// totals bit for bit — Schedule.Total is the pre-refactor
// additive model, untouched by the overlap engine. Collective shares
// and kernel tallies are held to the same standard, and the overlapped
// column is sanity-bounded against its own baseline value.
func TestGoldenSerialEquivalence(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var baseline []Record
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("parsing committed baseline: %v", err)
	}
	if len(baseline) != 700 {
		t.Fatalf("baseline has %d records, want the full 700-case cross-product", len(baseline))
	}

	recs, err := Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(baseline) {
		t.Fatalf("fresh sweep has %d records, baseline %d", len(recs), len(baseline))
	}

	byID := make(map[string]Record, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	for _, want := range baseline {
		got, ok := byID[want.ID]
		if !ok {
			t.Errorf("%s: in baseline but not in fresh sweep", want.ID)
			continue
		}
		if got.TotalS != want.TotalS {
			t.Errorf("%s: total %.17g != baseline total_s %.17g (must be bit-identical)",
				want.ID, got.TotalS, want.TotalS)
		}
		if got.CollectiveS != want.CollectiveS {
			t.Errorf("%s: collective_s %.17g != baseline %.17g", want.ID, got.CollectiveS, want.CollectiveS)
		}
		if got.Kernels != want.Kernels {
			t.Errorf("%s: kernel counts %+v != baseline %+v", want.ID, got.Kernels, want.Kernels)
		}
		if got.OverlappedS != want.OverlappedS {
			t.Errorf("%s: overlapped_s %.17g != baseline %.17g", want.ID, got.OverlappedS, want.OverlappedS)
		}
		if got.OverlappedS <= 0 || got.OverlappedS > got.TotalS {
			t.Errorf("%s: overlapped_s %g outside (0, total_s=%g]", want.ID, got.OverlappedS, got.TotalS)
		}
	}
}

// TestGPURecordsAreCoverageDrift pins the baseline-migration semantics
// of the GPU backend landing: against a pre-GPU baseline (the committed
// baseline with the GPU-family records stripped — byte-wise exactly the
// 400-record file this repo shipped before gpusim), a fresh full sweep
// classifies every GPU case ID as coverage drift (OnlyInNew), never as
// a regression, and every pre-existing TPU record compares unchanged on
// both gated metrics.
func TestGPURecordsAreCoverageDrift(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var baseline []Record
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("parsing committed baseline: %v", err)
	}

	family := make(map[string]string)
	for _, info := range cross.RegisteredTargets() {
		family[info.Name] = info.Family
	}
	var preGPU []Record
	for _, r := range baseline {
		switch family[r.Spec] {
		case "tpu":
			preGPU = append(preGPU, r)
		case "gpu":
		default:
			t.Fatalf("%s: spec %q not in the registry", r.ID, r.Spec)
		}
	}
	if len(preGPU) != 400 {
		t.Fatalf("baseline carries %d TPU records, want the pre-GPU 400", len(preGPU))
	}

	fresh, err := Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(preGPU, fresh, 0.005)
	if err != nil {
		t.Fatal(err)
	}

	if d.HasRegressions() {
		t.Errorf("GPU axis growth classified as regression:\n%s", d.Summary())
	}
	if len(d.Improvements) > 0 {
		t.Errorf("GPU axis growth classified as improvement:\n%s", d.Summary())
	}
	if len(d.OnlyInOld) > 0 {
		t.Errorf("TPU records missing from the fresh sweep: %v", d.OnlyInOld)
	}

	onlyNew := make(map[string]bool, len(d.OnlyInNew))
	for _, id := range d.OnlyInNew {
		onlyNew[id] = true
	}
	var wantDrift int
	for _, r := range fresh {
		isGPU := family[r.Spec] == "gpu"
		if isGPU {
			wantDrift++
		}
		if isGPU != onlyNew[r.ID] {
			t.Errorf("%s: coverage-drift classification %v, want %v (family %s)",
				r.ID, onlyNew[r.ID], isGPU, family[r.Spec])
		}
	}
	if len(d.OnlyInNew) != wantDrift {
		t.Errorf("%d IDs in OnlyInNew, want the %d GPU cases", len(d.OnlyInNew), wantDrift)
	}
	// Every matched TPU record is unchanged on total_s and overlapped_s.
	if want := 2 * len(preGPU); d.Unchanged != want {
		t.Errorf("%d unchanged deltas, want %d (both metrics for all %d TPU records)",
			d.Unchanged, want, len(preGPU))
	}
}
