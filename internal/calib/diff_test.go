package calib

import (
	"strings"
	"testing"

	"cross/internal/gate"
	"cross/internal/hostbench"
	"cross/internal/tpusim"
)

// diff is Diff for reports without duplicate IDs.
func diff(t *testing.T, old, new *Report, threshold float64) gate.Result {
	t.Helper()
	d, err := Diff(old, new, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func calibRec(id, source string, relFit float64) Record {
	return Record{
		ID: id, Spec: strings.SplitN(id, "/", 2)[0], Source: source,
		MeasuredNs: 1000, PredictedNs: 1000 * (1 + relFit), FittedNs: 1000 * (1 + relFit),
		RelErr: relFit, RelErrFitted: relFit,
	}
}

func baseReport() *Report {
	return &Report{
		Env: hostbench.Environment{GoVersion: "go1.23.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GOMAXPROCS: 8},
		Records: []Record{
			calibRec("TPUv4/ntt_throughput/N4096", SourcePublished, 0.05),
			calibRec("TPUv4/bootstrap_amortized/SetD", SourcePublished, -0.10),
			calibRec("host-cpu/vecaddmod/N8192", SourceHost, 0.08),
		},
		Fits: []SpecFit{
			{Spec: "TPUv4", Source: SourcePublished,
				Fitted: tpusim.Calibration{LaunchOverhead: 1e-5, HBMFraction: 0.5, VMEMFraction: 0.5, NTTEfficiency: 2}},
			{Spec: "host-cpu", Source: SourceHost,
				Fitted: tpusim.Calibration{LaunchOverhead: 1e-7, HBMFraction: 1, VMEMFraction: 1, NTTEfficiency: 1}},
		},
	}
}

// The gate test, same pattern as sweep.Classify's: injected model
// drift on a published record must fail the diff.
func TestDiffGatesInjectedModelDrift(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	// Inject drift: the TPUv4 NTT model error grows 5% → 30%.
	cur.Records[0].RelErrFitted = 0.30
	d := diff(t, old, cur, 0.10)
	if !d.HasRegressions() {
		t.Fatal("injected 25-point model-error drift must fail the gate")
	}
	if len(d.Regressions) != 1 || d.Regressions[0].ID != "TPUv4/ntt_throughput/N4096" {
		t.Fatalf("regressions = %+v", d.Regressions)
	}
	if s := d.Summary(); !strings.Contains(s, "REGRESSION") {
		t.Errorf("summary does not flag the regression:\n%s", s)
	}
}

// The same drift on a HOST record must warn, not fail — host ground
// truth moves with the CI machine.
func TestDiffHostDriftWarnsOnly(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Records[2].RelErrFitted = 0.50
	d := diff(t, old, cur, 0.10)
	if d.HasRegressions() {
		t.Fatalf("host drift must not fail the gate: %+v", d.Regressions)
	}
	if len(d.Warnings) != 1 || d.Warnings[0].ID != "host-cpu/vecaddmod/N8192" {
		t.Fatalf("expected a host-record warning, got %v", d.Warnings)
	}
	if s := d.Summary(); !strings.Contains(s, "WARNING") {
		t.Errorf("summary does not show the warning:\n%s", s)
	}
}

// Error shrinking beyond the threshold is an improvement; within it,
// unchanged.
func TestDiffImprovementAndUnchanged(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Records[1].RelErrFitted = 0.02 // |−0.10| → 0.02: improvement
	d := diff(t, old, cur, 0.05)
	if d.HasRegressions() {
		t.Fatalf("unexpected regressions: %+v", d.Regressions)
	}
	if len(d.Improvements) != 1 || d.Improvements[0].ID != "TPUv4/bootstrap_amortized/SetD" {
		t.Fatalf("improvements = %+v", d.Improvements)
	}
	// Two records plus two fits of four constants each.
	if d.Unchanged != 10 {
		t.Fatalf("unchanged = %d, want 10", d.Unchanged)
	}
}

// Fitted-constant drift on a published spec is deterministic, so it
// gates; the same drift on the host spec warns.
func TestDiffConstantDrift(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Fits[0].Fitted.NTTEfficiency = 4 // published: 2 → 4
	cur.Fits[1].Fitted.LaunchOverhead = 1e-6
	d := diff(t, old, cur, 0.10)
	if !d.HasRegressions() {
		t.Fatal("published constant drift must fail the gate")
	}
	if len(d.Regressions) != 1 || d.Regressions[0].ID != "fit/TPUv4" || d.Regressions[0].Metric != "ntt_efficiency" {
		t.Fatalf("regressions = %+v, want fit/TPUv4 ntt_efficiency", d.Regressions)
	}
	if len(d.Warnings) != 1 || d.Warnings[0].ID != "fit/host-cpu" || d.Warnings[0].Metric != "launch_overhead_s" {
		t.Fatalf("host constant drift must warn: %+v", d.Warnings)
	}
	// A constant has no better direction: a fall beyond the threshold
	// drifts too.
	cur = baseReport()
	cur.Fits[0].Fitted.HBMFraction = 0.25
	if d := diff(t, old, cur, 0.10); len(d.Regressions) != 1 || d.Regressions[0].Metric != "hbm_fraction" {
		t.Fatalf("falling constant not gated: %+v", d.Regressions)
	}
}

// Environment mismatches surface as warnings through the report diff.
func TestDiffEnvMismatchWarns(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Env.GoVersion = "go1.24.0"
	d := diff(t, old, cur, 0.10)
	if d.HasRegressions() {
		t.Fatal("env mismatch must not fail the gate")
	}
	if len(d.EnvWarnings) != 1 || !strings.Contains(d.EnvWarnings[0], "go_version") {
		t.Fatalf("expected a go_version warning, got %v", d.EnvWarnings)
	}
}

// Identical reports diff clean, and coverage drift is reported.
func TestDiffCleanAndCoverage(t *testing.T) {
	old := baseReport()
	d := diff(t, old, baseReport(), 0.10)
	if d.HasRegressions() || len(d.Improvements) != 0 || d.Unchanged != 11 || len(d.Warnings) != 0 || len(d.EnvWarnings) != 0 {
		t.Fatalf("self-diff not clean: %+v", d)
	}

	cur := baseReport()
	cur.Records = cur.Records[:2]
	cur.Records = append(cur.Records, calibRec("H100/ntt_throughput/N4096", SourcePublished, 0.01))
	d = diff(t, old, cur, 0.10)
	if len(d.OnlyInOld) != 1 || len(d.OnlyInNew) != 1 {
		t.Fatalf("coverage drift not reported: %+v", d)
	}
}

// A published constant zeroed in the baseline must not pass the gate
// (the zero-baseline rule), and a fit spec present on one side only is
// coverage drift, not silence.
func TestDiffConstantZeroBaselineAndFitCoverage(t *testing.T) {
	old := baseReport()
	old.Fits[0].Fitted.VMEMFraction = 0
	d := diff(t, old, baseReport(), 0.10)
	if len(d.Regressions) != 1 || d.Regressions[0].ID != "fit/TPUv4" || d.Regressions[0].Metric != "vmem_fraction" {
		t.Fatalf("zeroed baseline constant not gated: %+v", d.Regressions)
	}

	cur := baseReport()
	cur.Fits = append(cur.Fits, SpecFit{Spec: "A100-40GB", Source: SourcePublished,
		Fitted: tpusim.Calibration{LaunchOverhead: 1e-6, HBMFraction: 1, VMEMFraction: 1, NTTEfficiency: 1}})
	d = diff(t, cur, baseReport(), 0.10)
	if len(d.OnlyInOld) != 1 || d.OnlyInOld[0] != "fit/A100-40GB" {
		t.Fatalf("fit only in baseline not reported: %v", d.OnlyInOld)
	}
	d = diff(t, baseReport(), cur, 0.10)
	if len(d.OnlyInNew) != 1 || d.OnlyInNew[0] != "fit/A100-40GB" {
		t.Fatalf("fit only in new run not reported: %v", d.OnlyInNew)
	}
}
