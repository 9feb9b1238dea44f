package hostbench

import (
	"math"
	"testing"
)

// The kernel set at benchN must reproduce the exact record IDs the
// committed BENCH_host.json has always carried — the refactor that
// introduced buildKernels must not move the gate's vocabulary.
func TestBuildKernelsKeepsHistoricalIDs(t *testing.T) {
	ks, err := buildKernels(benchN, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ntt_inplace/N8192", "intt_inplace/N8192",
		"vecmulmod_shoup/N8192", "vecmulmod_barrett/N8192",
		"vecaddmod/N8192", "automorphism_ntt/N8192",
		"matntt_forward/N8192", "bat_matmul/64x64x64",
		"bconv_approx/L2_to_2/N8192",
	}
	if len(ks) != len(want) {
		t.Fatalf("kernel count = %d, want %d", len(ks), len(want))
	}
	for i, k := range ks {
		if k.id != want[i] {
			t.Errorf("kernel[%d].id = %q, want %q", i, k.id, want[i])
		}
		if err := k.op(); err != nil {
			t.Errorf("%s: op failed: %v", k.id, err)
		}
	}
}

// Measure must return positive samples for every kernel at every size,
// with the size-independent BAT matmul appearing exactly once.
func TestMeasureSmoke(t *testing.T) {
	sizes := []int{512, 1024}
	samples, err := Measure(sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 9 kernels at the first size (with BAT), 8 at the second.
	if len(samples) != 17 {
		t.Fatalf("sample count = %d, want 17", len(samples))
	}
	bat := 0
	for _, s := range samples {
		if len(s.Ns) != 2 {
			t.Errorf("%s: %d repeats, want 2", s.ID, len(s.Ns))
		}
		if b := s.Best(); !(b > 0) {
			t.Errorf("%s: Best() = %v, want > 0", s.ID, b)
		}
		if s.Kernel == "bat_matmul" {
			bat++
		}
	}
	if bat != 1 {
		t.Errorf("bat_matmul measured %d times, want once", bat)
	}
}

// Degenerate inputs error cleanly rather than measuring nonsense.
func TestMeasureRejectsBadSizes(t *testing.T) {
	if _, err := Measure(nil, 3); err == nil {
		t.Error("empty size list must error")
	}
	if _, err := Measure([]int{100}, 3); err == nil {
		t.Error("non-power-of-two size must error")
	}
	if _, err := Measure([]int{128}, 3); err == nil {
		t.Error("size below the MAT split must error")
	}
}

// RunFile's records are the historical kernel set at benchN, each with
// a positive best-of-repeats ns/op and a whole allocs/op count (the
// kernels' zero-allocation checks live with the kernels: the race
// detector's sync.Pool drops make a count here nonzero).
func TestRunFileRecords(t *testing.T) {
	f, err := RunFile()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := buildKernels(benchN, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != len(ks) {
		t.Fatalf("%d records, want %d", len(f.Records), len(ks))
	}
	for i, r := range f.Records {
		if r.ID != ks[i].id || !(r.NsPerOp > 0) || r.AllocsPerOp < 0 || r.AllocsPerOp != math.Trunc(r.AllocsPerOp) {
			t.Errorf("record %d = %+v, want ID %s, ns/op > 0, whole allocs/op ≥ 0", i, r, ks[i].id)
		}
	}
	if f.Env.GoVersion == "" {
		t.Error("RunFile did not stamp the environment")
	}
}

// The gate's records are scaled by the reference kernel timed around
// each repeat, while Measure's raw samples (the calibration harness's
// input) carry no scale. A repeat on a host where the reference runs at
// half speed counts half.
func TestReferenceScaling(t *testing.T) {
	if got := refScale(refNominalNs, refNominalNs); got != 1 {
		t.Errorf("refScale at the nominal reading = %v, want 1", got)
	}
	if got := refScale(2*refNominalNs, 2*refNominalNs); got != 0.5 {
		t.Errorf("refScale at twice the nominal reading = %v, want 0.5", got)
	}
	s := Sample{Ns: []float64{100, 150}, scale: []float64{2, 1}}
	if got := s.scaledBest(); got != 150 {
		t.Errorf("scaledBest = %v, want 150 (the second repeat, unscaled)", got)
	}
	raw, err := Measure([]int{256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := measure([]int{256}, 2, newHostRef())
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if raw[i].scale != nil {
			t.Errorf("%s: Measure recorded a reference scale", raw[i].ID)
		}
		sc := scaled[i].scale
		if len(sc) != 2 || !(sc[0] > 0) || !(sc[1] > 0) || math.IsInf(sc[0], 0) || math.IsInf(sc[1], 0) {
			t.Errorf("%s: reference scales %v, want two positive finite factors", scaled[i].ID, sc)
		}
	}
}
