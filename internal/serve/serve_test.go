package serve

import (
	"encoding/json"
	"testing"

	"cross/internal/sweep"
)

// hemultOnly is the single-class mix the load-shape tests use: one
// service-time distribution, so queueing effects are easy to reason
// about.
func hemultOnly() []MixEntry {
	return []MixEntry{{Workload: sweep.WorkloadHEMult, Weight: 1}}
}

// TestServeDeterministic is the determinism contract: the JSON record
// is bit-identical across runs and across pre-pricing worker counts
// for a fixed seed.
func TestServeDeterministic(t *testing.T) {
	base := Config{
		Seed:     7,
		Spec:     "TPUv5e",
		Set:      "B",
		Pods:     3,
		Policy:   PolicyJSQ,
		HorizonS: 0.02,
		MaxBatch: 4,
	}
	var golden []byte
	for _, parallel := range []int{1, 4, 8} {
		for run := 0; run < 2; run++ {
			cfg := base
			cfg.Parallel = parallel
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if golden == nil {
				golden = got
				if r.Requests == 0 {
					t.Fatal("determinism test served zero requests — widen the horizon")
				}
				continue
			}
			if string(got) != string(golden) {
				t.Fatalf("parallel=%d run=%d: record drifted from golden\n got: %s\nwant: %s",
					parallel, run, got, golden)
			}
		}
	}
}

// TestServeSeedChangesArrivals: a different seed is a different
// offered trace (the PRNG is actually wired in).
func TestServeSeedChangesArrivals(t *testing.T) {
	cfg := Config{Spec: "TPUv5e", Pods: 2, HorizonS: 0.02, Mix: hemultOnly()}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests == b.Requests && a.Latency == b.Latency {
		t.Error("seed change left the run identical")
	}
}

// TestServeSaturation drives offered load through the pod-capacity
// knee: tail latency must rise with load, and achieved throughput must
// track offered load below capacity then saturate at the fleet ceiling
// above it.
func TestServeSaturation(t *testing.T) {
	probe, err := Run(Config{
		Spec: "TPUv4", Set: "A", Pods: 2, MaxBatch: 1,
		HorizonS: 0.001, Mix: hemultOnly(),
	})
	if err != nil {
		t.Fatal(err)
	}
	capacity := probe.CapacityRate
	if capacity <= 0 {
		t.Fatal("zero capacity")
	}
	// Horizon sized so the lightest run still sees ~500 requests.
	horizon := 1000 / capacity

	fractions := []float64{0.5, 0.9, 2, 4}
	results := make([]*Result, len(fractions))
	for i, f := range fractions {
		r, err := Run(Config{
			Seed: 3, Spec: "TPUv4", Set: "A", Pods: 2, MaxBatch: 1,
			Rate: f * capacity, HorizonS: horizon, Mix: hemultOnly(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed != r.Requests {
			t.Fatalf("load %gx: %d of %d completed", f, r.Completed, r.Requests)
		}
		results[i] = r
		t.Logf("load %.1fx: offered %.0f/s achieved %.0f/s p99 %.3gs (n=%d)",
			f, r.OfferedRate, r.AchievedRate, r.Latency.P99S, r.Requests)
	}

	// p99 latency rises as offered rate crosses capacity.
	for i := 1; i < len(results); i++ {
		if results[i].Latency.P99S <= results[i-1].Latency.P99S {
			t.Errorf("p99 did not rise from %gx to %gx load: %g → %g",
				fractions[i-1], fractions[i], results[i-1].Latency.P99S, results[i].Latency.P99S)
		}
	}
	// Below the knee: achieved ≈ offered.
	if r := results[0]; r.AchievedRate < 0.9*r.OfferedRate {
		t.Errorf("sub-capacity run lost throughput: achieved %g of offered %g", r.AchievedRate, r.OfferedRate)
	}
	// Above the knee: achieved saturates at the capacity ceiling —
	// doubling offered load (2x → 4x) gains almost nothing.
	over2, over4 := results[2], results[3]
	if over4.AchievedRate > 1.05*capacity {
		t.Errorf("achieved %g exceeds capacity ceiling %g", over4.AchievedRate, capacity)
	}
	if over4.AchievedRate > 1.1*over2.AchievedRate {
		t.Errorf("no saturation plateau: 2x achieves %g, 4x achieves %g", over2.AchievedRate, over4.AchievedRate)
	}
}

// TestBatchingBeatsNoBatching: at an offered rate above the no-batch
// capacity, dynamic batching amortises kernel-launch overhead into
// higher sustained throughput and a lower tail (the Fig. 11b effect at
// the serving level).
func TestBatchingBeatsNoBatching(t *testing.T) {
	probe, err := Run(Config{
		Spec: "TPUv4", Set: "A", Pods: 1, MaxBatch: 1,
		HorizonS: 0.001, Mix: hemultOnly(),
	})
	if err != nil {
		t.Fatal(err)
	}
	noBatchCap := probe.CapacityRate
	rate := 1.3 * noBatchCap
	horizon := 800 / rate

	run := func(maxBatch int) *Result {
		t.Helper()
		r, err := Run(Config{
			Seed: 5, Spec: "TPUv4", Set: "A", Pods: 1,
			MaxBatch: maxBatch, Rate: rate, HorizonS: horizon, Mix: hemultOnly(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	unbatched := run(1)
	batched := run(8)
	t.Logf("no-batch: achieved %.0f/s p99 %.3gs; batch≤8: achieved %.0f/s p99 %.3gs (mean batch %.2f)",
		unbatched.AchievedRate, unbatched.Latency.P99S,
		batched.AchievedRate, batched.Latency.P99S, batched.MeanBatch)

	if batched.MeanBatch <= 1 {
		t.Error("overloaded pod formed no batches")
	}
	if batched.AchievedRate <= unbatched.AchievedRate {
		t.Errorf("batching did not lift throughput: %g vs %g", batched.AchievedRate, unbatched.AchievedRate)
	}
	if batched.Latency.P99S >= unbatched.Latency.P99S {
		t.Errorf("batching did not cut the tail: p99 %g vs %g", batched.Latency.P99S, unbatched.Latency.P99S)
	}
}

// TestServeBatchServiceModel pins the batching cost model: batched
// service time is strictly increasing in b, per-request time strictly
// decreasing (the amortisation that makes batching worth it), and the
// amortised saving never exceeds the replicated program time.
func TestServeBatchServiceModel(t *testing.T) {
	cfg := Config{Spec: "TPUv4", Set: "A", MaxBatch: 8, Mix: hemultOnly()}.withDefaults()
	pt, err := price(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := pt.groups[0].svc[0]
	for b := 1; b < len(svc); b++ {
		if svc[b] <= svc[b-1] {
			t.Errorf("service time not increasing: svc[%d]=%g ≤ svc[%d]=%g", b+1, svc[b], b, svc[b-1])
		}
		perNew, perOld := svc[b]/float64(b+1), svc[b-1]/float64(b)
		if perNew >= perOld {
			t.Errorf("per-request time not decreasing at b=%d: %g ≥ %g", b+1, perNew, perOld)
		}
	}
	if svc[0] != pt.groups[0].base[0] {
		t.Errorf("batch-1 service %g != base %g", svc[0], pt.groups[0].base[0])
	}
}

// TestServePoliciesAndSchema: every dispatch policy drains a
// heterogeneous mix and the record's internal accounting adds up.
func TestServePoliciesAndSchema(t *testing.T) {
	for _, policy := range Policies {
		r, err := Run(Config{
			Seed: 11, Spec: "TPUv5e", Set: "B", Pods: 3, Policy: policy,
			HorizonS: 0.05, MaxBatch: 4,
			Mix: []MixEntry{
				{Workload: sweep.WorkloadHEMult, Weight: 0.6},
				{Workload: sweep.WorkloadRotate, Weight: 0.4},
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if r.Requests == 0 || r.Completed != r.Requests {
			t.Fatalf("%s: %d of %d completed", policy, r.Completed, r.Requests)
		}
		var served, wl int
		for _, p := range r.Pods {
			served += p.Served
			if p.Utilization < 0 || p.Utilization > 1 {
				t.Errorf("%s: pod %d utilization %g outside [0,1]", policy, p.Pod, p.Utilization)
			}
		}
		for _, w := range r.Workloads {
			wl += w.Requests
		}
		if served != r.Completed || wl != r.Completed {
			t.Errorf("%s: accounting mismatch: pods %d, workloads %d, completed %d",
				policy, served, wl, r.Completed)
		}
		if r.MeanBatch < 1 {
			t.Errorf("%s: mean batch %g < 1", policy, r.MeanBatch)
		}
		if r.MakespanS <= 0 || r.AchievedRate <= 0 {
			t.Errorf("%s: empty makespan/throughput", policy)
		}
	}
}

// TestServeMaxDelayHoldsBatches: with a queue-delay budget an idle pod
// holds a non-full batch open, so launches are fewer and fuller than
// launch-on-free batching under the same trace.
func TestServeMaxDelayHoldsBatches(t *testing.T) {
	base := Config{
		Seed: 13, Spec: "TPUv5e", Set: "B", Pods: 1, MaxBatch: 8,
		HorizonS: 0.02, Mix: hemultOnly(),
	}
	eager, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	held := base
	held.MaxDelayS = 0.005
	patient, err := Run(held)
	if err != nil {
		t.Fatal(err)
	}
	if patient.MeanBatch <= eager.MeanBatch {
		t.Errorf("delay budget did not grow batches: %g (delay) vs %g (eager)",
			patient.MeanBatch, eager.MeanBatch)
	}
	if patient.Completed != patient.Requests {
		t.Error("held batches were never flushed")
	}
}

// TestFullBatchNotStrandedBehindOtherClass (white-box): a full batch
// in one class must launch immediately even when another class's head
// request arrived earlier but is still inside its delay budget — the
// hold-open rule applies per class, not to the pod.
func TestFullBatchNotStrandedBehindOtherClass(t *testing.T) {
	cfg := Config{
		Spec: "TPUv5e", Set: "B", Pods: 1, MaxBatch: 2, MaxDelayS: 1.0,
		Rate: 1, HorizonS: 1,
		Mix: []MixEntry{
			{Workload: sweep.WorkloadRotate, Weight: 0.5},
			{Workload: sweep.WorkloadHEMult, Weight: 0.5},
		},
	}.withDefaults()
	pt, err := price(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One class-0 request, then a full class-1 batch shortly after.
	cfg.Source = &sliceSource{times: []float64{0.001, 0.002, 0.003}, classes: []int{0, 1, 1}}
	s, err := newSim(cfg, pt)
	if err != nil {
		t.Fatal(err)
	}
	s.run()

	// The full class-1 batch launches at its second arrival, far before
	// the class-0 delay deadline at t=1.001.
	if got := s.reqs[1].finish; got >= 0.5 {
		t.Errorf("full batch stranded behind unexpired class: finished at %g s", got)
	}
	// The lone class-0 request still waits out its own delay budget.
	if got := s.reqs[0].finish; got < 1.001 {
		t.Errorf("non-full batch launched before its deadline: finished at %g s", got)
	}
	for i, r := range s.reqs {
		if r.finish <= r.arrival {
			t.Errorf("request %d never served", i)
		}
	}
}

// TestServeAutoRate: Rate ≤ 0 resolves to the documented fraction of
// fleet capacity, and the resolved value is echoed in the record.
func TestServeAutoRate(t *testing.T) {
	r, err := Run(Config{Spec: "TPUv5e", Pods: 2, HorizonS: 0.01, Mix: hemultOnly()})
	if err != nil {
		t.Fatal(err)
	}
	want := autoRateFraction * r.CapacityRate
	if r.OfferedRate != want || r.Config.Rate != want {
		t.Errorf("auto rate = %g (config %g), want %g", r.OfferedRate, r.Config.Rate, want)
	}
}

// TestServeValidation: unpriceable configurations are rejected.
func TestServeValidation(t *testing.T) {
	bad := []Config{
		{Spec: "TPUv99"},
		{Set: "Z"},
		{Policy: "random"},
		{Pods: -1},
		{CoresPerPod: -2},
		{HorizonS: -1},
		{MaxBatch: -3},
		{MaxDelayS: -1},
		{Mix: []MixEntry{{Workload: sweep.WorkloadHEMult, Weight: -1}}},
		{Mix: []MixEntry{{Workload: "Quantum", Weight: 1}}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestServeOverlapPricing: the Overlap flag routes pricing through
// Schedule.Overlapped — service times shrink, so at a fixed
// offered rate the overlap-priced fleet has strictly more capacity and
// no worse latency than the serial-priced one, and the flag is echoed
// in the record schema.
func TestServeOverlapPricing(t *testing.T) {
	base := Config{
		Seed:        3,
		Set:         "D",
		Pods:        2,
		CoresPerPod: 4,
		Rate:        500,
		HorizonS:    0.02,
		MaxBatch:    4,
		Mix:         hemultOnly(),
	}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.Overlap = true
	overlapped, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}

	if !overlapped.Config.Overlap || serial.Config.Overlap {
		t.Errorf("Overlap flag not echoed: serial=%v overlapped=%v",
			serial.Config.Overlap, overlapped.Config.Overlap)
	}
	if overlapped.CapacityRate <= serial.CapacityRate {
		t.Errorf("overlap pricing capacity %g not above serial %g",
			overlapped.CapacityRate, serial.CapacityRate)
	}
	if overlapped.Latency.P99S > serial.Latency.P99S {
		t.Errorf("overlap pricing p99 %g above serial %g",
			overlapped.Latency.P99S, serial.Latency.P99S)
	}
	if overlapped.Requests != serial.Requests {
		t.Errorf("arrival trace changed with pricing: %d vs %d requests",
			overlapped.Requests, serial.Requests)
	}
}

// TestServeGPUFleet prices a serving run on a GPU fleet through the
// same pipeline as TPU fleets: the registry resolves the device, the
// record schema is unchanged, and the run is deterministic. An H100
// fleet must out-serve an equal A100-40GB fleet (strictly higher
// capacity) since the part dominates on every roofline axis.
func TestServeGPUFleet(t *testing.T) {
	base := Config{
		Seed:     11,
		Spec:     "H100",
		Set:      "B",
		Pods:     2,
		HorizonS: 0.02,
		MaxBatch: 4,
		Mix:      hemultOnly(),
	}
	h100, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if h100.Requests == 0 || h100.Completed != h100.Requests {
		t.Fatalf("GPU fleet served %d/%d requests", h100.Completed, h100.Requests)
	}
	if h100.CapacityRate <= 0 {
		t.Fatalf("GPU fleet capacity %g, want positive", h100.CapacityRate)
	}
	if h100.Config.Spec != "H100" {
		t.Errorf("echoed spec %q", h100.Config.Spec)
	}

	again, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(h100)
	jb, _ := json.Marshal(again)
	if string(ja) != string(jb) {
		t.Error("GPU fleet record not deterministic across runs")
	}

	a100cfg := base
	a100cfg.Spec = "A100-40GB"
	a100, err := Run(a100cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h100.CapacityRate <= a100.CapacityRate {
		t.Errorf("H100 fleet capacity %g req/s should exceed A100-40GB's %g",
			h100.CapacityRate, a100.CapacityRate)
	}
}

// TestServeMultiGPUNodes runs a fleet of 8-GPU NVLink nodes — the
// CoresPerPod axis on the GPU backend — and checks collectives priced
// into the service times still leave a well-formed record.
func TestServeMultiGPUNodes(t *testing.T) {
	r, err := Run(Config{
		Seed:        3,
		Spec:        "A100-80GB",
		Pods:        2,
		CoresPerPod: 8,
		HorizonS:    0.02,
		MaxBatch:    2,
		Mix:         hemultOnly(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests == 0 || r.Completed != r.Requests {
		t.Fatalf("served %d/%d requests", r.Completed, r.Requests)
	}
	if r.Latency.P99S < r.Latency.P50S || r.Latency.P50S <= 0 {
		t.Errorf("degenerate latency distribution: %+v", r.Latency)
	}
}
