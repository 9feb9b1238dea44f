package cross

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
)

func TestContextEndToEnd(t *testing.T) {
	ctx, err := NewContext(ContextOptions{LogN: 10, Limbs: 4, Rotations: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	z1 := make([]complex128, ctx.Slots())
	z2 := make([]complex128, ctx.Slots())
	for i := range z1 {
		z1[i] = complex(rng.Float64(), rng.Float64())
		z2[i] = complex(rng.Float64(), rng.Float64())
	}
	ct1, err := ctx.EncryptValues(z1)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := ctx.EncryptValues(z2)
	if err != nil {
		t.Fatal(err)
	}

	sum, err := ctx.Evaluator.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.DecryptValues(sum)
	for i := range z1 {
		if cmplx.Abs(got[i]-(z1[i]+z2[i])) > 1e-4 {
			t.Fatalf("slot %d add error", i)
		}
	}

	prod, err := ctx.MulRescale(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got = ctx.DecryptValues(prod)
	for i := range z1 {
		if cmplx.Abs(got[i]-z1[i]*z2[i]) > 1e-2 {
			t.Fatalf("slot %d mul error %g", i, cmplx.Abs(got[i]-z1[i]*z2[i]))
		}
	}

	if _, err := ctx.EncryptValues([]complex128{complex(math.NaN(), 0)}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("EncryptValues of a NaN slot: err = %v, want ErrNonFinite", err)
	}

	rot, err := ctx.Evaluator.Rotate(ct1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got = ctx.DecryptValues(rot)
	for i := range z1 {
		if cmplx.Abs(got[i]-z1[(i+2)%len(z1)]) > 1e-2 {
			t.Fatalf("slot %d rotate error", i)
		}
	}
}

func TestContextDefaults(t *testing.T) {
	ctx, err := NewContext(ContextOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Slots() != 1<<11 {
		t.Errorf("default slots = %d", ctx.Slots())
	}
	if ctx.Params.MaxLevel() != 5 {
		t.Errorf("default max level = %d", ctx.Params.MaxLevel())
	}
}

func TestCompilerFacade(t *testing.T) {
	c, err := Compile(NewDevice(TPUv6e()), SetD())
	if err != nil {
		t.Fatal(err)
	}
	ops := c.MeasureHEOps()
	if ops.Mult <= ops.Add {
		t.Error("mult should dominate add")
	}
	if _, err := Compile(NewDevice(TPUv4()), Params{}); err == nil {
		t.Error("expected validation error for zero params")
	}
}

func TestBATFacade(t *testing.T) {
	m, err := NewModulus(268369921)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileScalarBAT(m, 123456)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Mul(654321), m.MulMod(123456, 654321); got != want {
		t.Fatalf("facade BAT mul = %d want %d", got, want)
	}
	mm, err := CompileMatMulBAT(m, []uint64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mm.Mul([]uint64{5, 6, 7, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != m.AddMod(m.MulMod(1, 5), m.MulMod(2, 7)) {
		t.Error("facade matmul wrong")
	}
}

func TestRingFacade(t *testing.T) {
	primes, err := NTTFriendlyPrimes(28, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(256, primes)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewMatNTTPlan(r, 16, 16, LayoutBitRev)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, 256)
	in[1] = 42
	out := make([]uint64, 256)
	plan.ForwardLimb(0, in, out)
	want := append([]uint64(nil), in...)
	r.NTTLimb(0, want)
	for i := range out {
		if out[i] != want[i] {
			t.Fatal("facade NTT != radix-2 NTT")
		}
	}
}

func TestPodFacade(t *testing.T) {
	if _, err := NewPod(TPUv6e(), 0); err == nil {
		t.Error("expected error for zero-core pod")
	}
	pod, err := NewPod(TPUv6e(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if pod.AllReduceTime(1<<20) <= 0 || pod.BroadcastTime(1<<20) <= 0 {
		t.Error("collectives free on an 8-core pod")
	}
	sc, err := Compile(pod, SetD())
	if err != nil {
		t.Fatal(err)
	}
	single, err := Compile(NewDevice(TPUv6e()), SetD())
	if err != nil {
		t.Fatal(err)
	}
	if sc.LowerHEMult().Total >= single.LowerHEMult().Total {
		t.Error("8-core sharded HE-Mult should beat single-core")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("expected 16 experiments, got %d", len(ids))
	}
	exp, err := ExperimentByID("Table V")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exp.Notes, "VIOLATED") {
		t.Errorf("Table V violated: %s", exp.Notes)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("expected unknown-experiment error")
	}
}

func TestExperimentByIDErrorPath(t *testing.T) {
	for _, id := range []string{"", "Table Z", "fig99", "TABLE V EXTRA"} {
		exp, err := ExperimentByID(id)
		if err == nil {
			t.Fatalf("ExperimentByID(%q): expected error", id)
		}
		if exp.ID != "" || exp.Body != "" {
			t.Errorf("ExperimentByID(%q): non-zero report on error: %+v", id, exp)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown experiment") {
			t.Errorf("ExperimentByID(%q): error %q missing diagnosis", id, msg)
		}
		// The error must be actionable: it lists the valid identifiers.
		if !strings.Contains(msg, "Table V") || !strings.Contains(msg, "Core Scaling") {
			t.Errorf("ExperimentByID(%q): error %q does not list valid IDs", id, msg)
		}
	}
}

func TestTargetFacade(t *testing.T) {
	// Both public target types satisfy the exported interface, and one
	// Compile call covers both.
	var targets []Target
	targets = append(targets, NewDevice(TPUv6e()))
	pod, err := NewPod(TPUv6e(), 2)
	if err != nil {
		t.Fatal(err)
	}
	targets = append(targets, pod)
	for _, tgt := range targets {
		c, err := Compile(tgt, SetB())
		if err != nil {
			t.Fatal(err)
		}
		s := c.LowerHEMult()
		if s.Total <= 0 || s.Cores != tgt.NumCores() || s.Target != tgt.Name() {
			t.Errorf("%s: degenerate schedule %+v", tgt.Name(), s)
		}
	}
}

func TestProgramFacade(t *testing.T) {
	c, err := Compile(NewDevice(TPUv6e()), MNISTParams())
	if err != nil {
		t.Fatal(err)
	}
	// The MNIST estimator and its Program must agree exactly.
	_, perImage := EstimateMNIST(c)
	if got := MNISTProgram(c).Lower().Total; got != perImage {
		t.Errorf("MNISTProgram total %g != EstimateMNIST per-image %g", got, perImage)
	}
	cD, err := Compile(NewDevice(TPUv6e()), SetD())
	if err != nil {
		t.Fatal(err)
	}
	if got := HELRProgram(cD).Lower().Total; got != EstimateHELR(cD) {
		t.Error("HELRProgram total != EstimateHELR")
	}
	// Bootstrap composes into programs too.
	s := NewProgram(cD).Bootstrap(DefaultBootstrapSchedule(SetD())).Lower()
	if s.Total <= 0 || s.Kernels.NTTs == 0 {
		t.Errorf("bootstrap program degenerate: %+v", s)
	}
}

func TestSweepFacade(t *testing.T) {
	recs, err := Sweep(SweepConfig{
		Sets:     []string{"A", "D"},
		Specs:    []string{"TPUv6e"},
		Cores:    []int{1, 4},
		Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 5; len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	// The sweep's single-workload records agree exactly with a direct
	// lowering on an equivalent target.
	pod, err := NewPod(TPUv6e(), 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(pod, SetD())
	if err != nil {
		t.Fatal(err)
	}
	want := c.LowerHEMult().Total
	found := false
	for _, r := range recs {
		if r.ID == "SetD/TPUv6e-4/HE-Mult" {
			found = true
			if r.TotalS != want {
				t.Errorf("sweep HE-Mult %g != direct lowering %g", r.TotalS, want)
			}
		}
	}
	if !found {
		t.Error("SetD/TPUv6e-4/HE-Mult missing from sweep")
	}

	// SweepDiff: +1% injected latency gates, −1% reports improvement.
	bumped := append([]SweepRecord(nil), recs...)
	bumped[0].TotalS *= 1.01
	bumped[1].TotalS *= 0.99
	d, err := SweepDiff(recs, bumped, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasRegressions() || len(d.Regressions) != 1 || d.Regressions[0].ID != recs[0].ID {
		t.Errorf("+1%% not gated: %+v", d.Regressions)
	}
	if len(d.Improvements) != 1 || d.Improvements[0].ID != recs[1].ID {
		t.Errorf("−1%% not reported as improvement: %+v", d.Improvements)
	}
	if _, err := SweepDiff(recs, append(bumped, bumped[0]), 0.005); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("repeated new record ID: err = %v, want ErrDuplicateID", err)
	}
}

func TestWorkloadFacade(t *testing.T) {
	c, err := Compile(NewDevice(TPUv6e()), MNISTParams())
	if err != nil {
		t.Fatal(err)
	}
	total, perImage := EstimateMNIST(c)
	if total <= 0 || perImage <= 0 || total < perImage {
		t.Error("MNIST estimate degenerate")
	}
	cD, err := Compile(NewDevice(TPUv6e()), SetD())
	if err != nil {
		t.Fatal(err)
	}
	if EstimateHELR(cD) <= 0 {
		t.Error("HELR estimate degenerate")
	}
}

func TestServeFacade(t *testing.T) {
	r, err := Serve(ServeConfig{
		Seed: 2, Spec: "TPUv5e", Pods: 2, Policy: ServeLeastLoaded,
		HorizonS: 0.02, MaxBatch: 4,
		Mix: []ServeMixEntry{{Workload: "HE-Mult", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests == 0 || r.Completed != r.Requests {
		t.Fatalf("serve run degenerate: %d/%d", r.Completed, r.Requests)
	}
	if r.CapacityRate <= 0 || r.AchievedRate <= 0 || r.Latency.P99S < r.Latency.P50S {
		t.Errorf("serve record inconsistent: %+v", r)
	}
	if _, err := Serve(ServeConfig{Policy: "teleport"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Serve(ServeConfig{Rate: 1e9, HorizonS: 1}); !errors.Is(err, ErrRequestCap) {
		t.Errorf("oversized scenario: err = %v, want ErrRequestCap", err)
	}
	back := backwardsSource{0.002, 0.001}
	if _, err := Serve(ServeConfig{HorizonS: 0.01, Source: &back}); !errors.Is(err, ErrArrivalOrder) {
		t.Errorf("decreasing source: err = %v, want ErrArrivalOrder", err)
	}
}

// backwardsSource offers its times in order, class 0 each.
type backwardsSource []float64

func (b *backwardsSource) Next() (float64, int, bool) {
	if len(*b) == 0 {
		return 0, 0, false
	}
	t := (*b)[0]
	*b = (*b)[1:]
	return t, 0, true
}

func TestServeFaultsFacade(t *testing.T) {
	r, err := Serve(ServeConfig{
		Seed: 2, Spec: "TPUv5e", Pods: 3, HorizonS: 0.05, MaxBatch: 4,
		Mix:    []ServeMixEntry{{Workload: "HE-Mult", Weight: 1}},
		Faults: &FaultConfig{Seed: 4, MTBFS: 0.01, MaxRetries: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability == nil || r.Availability.Crashes == 0 {
		t.Fatalf("fault run recorded no crashes: %+v", r.Availability)
	}
	chaos, err := ServeChaos(ServeChaosConfig{
		Serve: ServeConfig{
			Seed: 2, Spec: "TPUv5e", Pods: 2, HorizonS: 0.02, MaxBatch: 4,
			Mix: []ServeMixEntry{{Workload: "HE-Mult", Weight: 1}},
		},
		MTBFGrid: []float64{0, 0.005},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(chaos.Points) != 2 || chaos.Points[0].MTBFS != 0 {
		t.Fatalf("chaos sweep malformed: %+v", chaos.Points)
	}
	if chaos.Points[1].Crashes == 0 {
		t.Error("chaos harsh cell crash-free")
	}
	if chaos.Summary() == "" {
		t.Error("empty chaos summary")
	}
	if _, err := Serve(ServeConfig{
		HorizonS: 0.01, Faults: &FaultConfig{MTBFS: -1},
	}); err == nil {
		t.Error("invalid fault config accepted")
	}
}

func TestServeFleetFacade(t *testing.T) {
	fleet, err := ServeParseFleet("TPUv6e:1:2+H100:1:1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Serve(ServeConfig{
		Seed: 2, Fleet: fleet, Policy: ServeCheapest,
		HorizonS: 0.02, MaxBatch: 4, Stats: ServeStatsStreaming,
		Mix: []ServeMixEntry{{Workload: "HE-Mult", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != r.Requests || r.Cost == nil || r.Cost.DollarPerHour <= 0 {
		t.Fatalf("hetero-fleet facade run degenerate: %d/%d cost %+v", r.Completed, r.Requests, r.Cost)
	}
	if _, err := ServeParseFleets("TPUv6e:1:1,bogus"); err == nil {
		t.Error("malformed fleet list accepted")
	}
}

func TestServeSLOAndTraceFacade(t *testing.T) {
	r, err := Serve(ServeConfig{
		Seed: 2, Spec: "TPUv5e", Pods: 2, HorizonS: 0.02, MaxBatch: 4,
		Mix: []ServeMixEntry{
			{Workload: "HE-Mult", Weight: 2, Class: "interactive"},
			{Workload: "MNIST", Weight: 1, Class: "batch"},
		},
		Classes: []ServeSLOClass{
			{Name: "interactive", Priority: 5},
			{Name: "batch"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Classes) != 2 || r.Classes[0].Class != "interactive" {
		t.Fatalf("class sections malformed: %+v", r.Classes)
	}
	tr, err := Serve(ServeConfig{
		Seed: 2, Spec: "TPUv5e", Pods: 1, MaxBatch: 2,
		TraceEvents: []ServeTraceEvent{
			{T: 0.001, Workload: "HE-Mult"},
			{T: 0.002, Workload: "HE-Mult"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests != 2 || tr.Completed != 2 {
		t.Fatalf("trace facade run degenerate: %+v", tr)
	}
	if _, err := ServeLoadTrace("/nonexistent/trace.json"); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestServePlanFacade(t *testing.T) {
	pr, err := ServePlan(ServePlanConfig{
		Base: ServeConfig{
			Seed: 2, Spec: "TPUv5e", HorizonS: 0.02, MaxBatch: 4,
			Mix: []ServeMixEntry{{Workload: "HE-Mult", Weight: 1}},
		},
		Fleets:     [][]ServeFleetGroup{{{Device: "TPUv5e", Cores: 1, Count: 2}}},
		TargetP99S: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Points) != 1 || !pr.Points[0].Feasible || pr.Points[0].RPSPerDollarHour <= 0 {
		t.Fatalf("plan facade frontier malformed: %+v", pr.Points)
	}
	if pr.Summary() == "" {
		t.Error("empty plan summary")
	}
	if _, err := ServePlan(ServePlanConfig{TargetP99S: 0}); err == nil {
		t.Error("zero plan target accepted")
	}
}

func TestCalibFacade(t *testing.T) {
	// PredictKernel prices every calibration kernel on any target, and
	// a non-default Calibration changes the price.
	c, err := Compile(NewDevice(TPUv6e()), SetB())
	if err != nil {
		t.Fatal(err)
	}
	if len(CalibKernels()) != 9 {
		t.Fatalf("expected 9 calibration kernels, got %d", len(CalibKernels()))
	}
	for _, k := range CalibKernels() {
		s, err := c.PredictKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		if s.Total <= 0 {
			t.Errorf("%s: non-positive predicted time", k)
		}
	}
	spec := TPUv6e()
	spec.Calib = Calibration{LaunchOverhead: 1e-4, HBMFraction: 0.5, VMEMFraction: 0.5, NTTEfficiency: 0.5}
	slow, err := Compile(NewDevice(spec), SetB())
	if err != nil {
		t.Fatal(err)
	}
	sDefault, _ := c.PredictKernel("ntt_inplace")
	sSlow, _ := slow.PredictKernel("ntt_inplace")
	if sSlow.Total <= sDefault.Total {
		t.Errorf("derated calibration did not slow the model: %g <= %g", sSlow.Total, sDefault.Total)
	}

	// CalibDiff gates injected model drift on a published record.
	mk := func() *CalibReport {
		return &CalibReport{Records: []CalibRecord{
			{ID: "TPUv4/ntt_throughput/N4096", Spec: "TPUv4", Source: "published", RelErrFitted: 0.05},
		}}
	}
	old, cur := mk(), mk()
	cur.Records[0].RelErrFitted = 0.40
	if d, err := CalibDiff(old, cur, 0.10); err != nil || !d.HasRegressions() {
		t.Errorf("injected model drift not gated (err %v)", err)
	}
	if d, err := CalibDiff(old, mk(), 0.10); err != nil || d.HasRegressions() {
		t.Errorf("self-diff not clean (err %v)", err)
	}

	// Host-file diffing surfaces environment mismatches as warnings.
	recs := []HostBenchRecord{{ID: "ntt_inplace/N8192", NsPerOp: 100}}
	a := HostBenchFile{Env: HostBenchEnvironment{GoVersion: "go1.23.0"}, Records: recs}
	b := HostBenchFile{Env: HostBenchEnvironment{GoVersion: "go1.24.0"}, Records: recs}
	d, err := HostBenchDiffFiles(a, b, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d.HasRegressions() {
		t.Error("env mismatch must not gate")
	}
	if len(d.EnvWarnings) == 0 {
		t.Error("expected an environment warning")
	}
}

func TestGPUBackendFacade(t *testing.T) {
	// Registry: any registered name instantiates through one call.
	if !strings.Contains(TargetNames(), "H100") || !strings.Contains(TargetNames(), "TPUv6e") {
		t.Fatalf("TargetNames() missing devices: %s", TargetNames())
	}
	if got := len(RegisteredTargets()); got != 7 {
		t.Fatalf("expected 7 registered devices (4 TPU + 3 GPU), got %d", got)
	}
	tgt, err := TargetByName("H100", 8)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(tgt, SetD())
	if err != nil {
		t.Fatal(err)
	}
	s := comp.LowerHEMult()
	if s.Total <= 0 || s.Collective <= 0 || s.Overlapped > s.Total {
		t.Errorf("GPU node schedule degenerate: %+v", s)
	}
	if _, err := TargetByName("Hopper", 8); err == nil {
		t.Error("unknown device accepted")
	}

	// Direct constructors match the registry path.
	node, err := NewGPUNode(H100(), 8)
	if err != nil {
		t.Fatal(err)
	}
	comp2, err := Compile(node, SetD())
	if err != nil {
		t.Fatal(err)
	}
	if got := comp2.LowerHEMult().Total; got != s.Total {
		t.Errorf("NewGPUNode lowering %g != registry lowering %g", got, s.Total)
	}
	dcomp, err := Compile(NewGPUDevice(A100_40GB()), SetB())
	if err != nil {
		t.Fatal(err)
	}
	if ds := dcomp.LowerHEMult(); ds.Total <= 0 || ds.Collective != 0 {
		t.Errorf("single GPU schedule degenerate: %+v", ds)
	}
}
