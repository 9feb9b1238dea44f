package hostbench

import (
	"strings"
	"testing"
)

// Regression test for the environment-metadata hole: BENCH_host.json
// used to carry bare records, so a baseline measured on one CI machine
// gated runs on entirely different hardware with no trace. DiffFiles
// must surface the mismatch — as a warning, never a regression.
func TestDiffFilesWarnsOnEnvMismatch(t *testing.T) {
	recs := []Record{rec("k", 100, 0)}
	base := File{
		Env: Environment{
			GoVersion: "go1.23.0", GOOS: "linux", GOARCH: "amd64",
			NumCPU: 8, GOMAXPROCS: 8, CPUModel: "Old CPU @ 2.0GHz",
		},
		Records: recs,
	}
	cur := base
	cur.Env.CPUModel = "New CPU @ 3.5GHz"
	cur.Env.GOMAXPROCS = 16

	d, err := DiffFiles(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d.HasRegressions() {
		t.Fatalf("environment drift must not be a regression: %+v", d.Regressions)
	}
	if len(d.EnvWarnings) != 2 {
		t.Fatalf("EnvWarnings = %v, want cpu_model and gomaxprocs", d.EnvWarnings)
	}
	joined := strings.Join(d.EnvWarnings, "\n")
	for _, want := range []string{"cpu_model", "gomaxprocs", "Old CPU", "New CPU"} {
		if !strings.Contains(joined, want) {
			t.Errorf("EnvWarnings missing %q: %v", want, d.EnvWarnings)
		}
	}
	if s := d.Summary(); !strings.Contains(s, "environment mismatch") {
		t.Errorf("Summary does not surface the warnings:\n%s", s)
	}
}

// A baseline with no environment block (zero Environment) must compare
// warning-free against any host.
func TestDiffFilesLegacyBaselineNoWarnings(t *testing.T) {
	recs := []Record{rec("k", 100, 0)}
	d, err := DiffFiles(File{Records: recs}, File{Env: CurrentEnvironment(), Records: recs}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.EnvWarnings) != 0 {
		t.Fatalf("zero baseline env must not warn: %v", d.EnvWarnings)
	}
	if d.HasRegressions() || d.Unchanged != 2 {
		t.Fatalf("records must still gate normally: %+v", d)
	}
}

// CurrentEnvironment must fill every non-best-effort field — the
// metadata the bugfix exists to record.
func TestCurrentEnvironmentPopulated(t *testing.T) {
	e := CurrentEnvironment()
	if e.GoVersion == "" || e.GOOS == "" || e.GOARCH == "" || e.NumCPU < 1 || e.GOMAXPROCS < 1 {
		t.Fatalf("CurrentEnvironment incomplete: %+v", e)
	}
}

// A record from an AVX-512 run compared against a pure-Go run must say
// so: the kernel backend alone moves the HE ns/op several-fold. A side
// that did not record the backend warns about nothing.
func TestMismatchesKernels(t *testing.T) {
	avx := Environment{GOOS: "linux", Kernels: "avx512"}
	pure := Environment{GOOS: "linux", Kernels: "go"}
	w := avx.Mismatches(pure)
	if len(w) != 1 || !strings.Contains(w[0], "kernels") || !strings.Contains(w[0], `"avx512"`) || !strings.Contains(w[0], `"go"`) {
		t.Fatalf("Mismatches = %v, want one kernels warning naming both backends", w)
	}
	if w := avx.Mismatches(avx); len(w) != 0 {
		t.Fatalf("same backend warned: %v", w)
	}
	if w := (Environment{GOOS: "linux"}).Mismatches(pure); len(w) != 0 {
		t.Fatalf("baseline without kernels warned: %v", w)
	}
	if w := avx.Mismatches(Environment{GOOS: "linux"}); len(w) != 0 {
		t.Fatalf("current without kernels warned: %v", w)
	}
	if k := CurrentEnvironment().Kernels; k != "avx512" && k != "go" {
		t.Fatalf("CurrentEnvironment().Kernels = %q", k)
	}
}
