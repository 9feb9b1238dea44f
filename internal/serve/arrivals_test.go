package serve

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cross/internal/sweep"
)

// rampTrace: a small deterministic trace mixing two workloads with an
// accelerating arrival pattern no Poisson source would produce.
func rampTrace() []TraceEvent {
	ev := make([]TraceEvent, 0, 30)
	t := 0.0
	for i := 0; i < 30; i++ {
		t += 0.002 / float64(1+i%5) // bursty, nondecreasing
		w := sweep.WorkloadHEMult
		if i%3 == 0 {
			w = sweep.WorkloadRotate
		}
		ev = append(ev, TraceEvent{T: t, Workload: w})
	}
	return ev
}

// TestServeTraceReplay: replaying a trace admits exactly the trace's
// events, echoes the derived rate/horizon/mix, and is byte-deterministic.
func TestServeTraceReplay(t *testing.T) {
	events := rampTrace()
	cfg := Config{
		Seed: 1, Spec: "TPUv5e", Set: "B", Pods: 2,
		Policy: PolicyJSQ, MaxBatch: 4,
		TraceEvents: events,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != len(events) {
		t.Fatalf("trace has %d events, sim saw %d requests", len(events), r.Requests)
	}
	if r.Completed != r.Requests {
		t.Fatalf("trace replay did not drain: %d of %d", r.Completed, r.Requests)
	}
	// Horizon defaults to the last event time; rate is echoed as n/T.
	last := events[len(events)-1].T
	if r.Config.HorizonS != last {
		t.Errorf("derived horizon %g, want last event time %g", r.Config.HorizonS, last)
	}
	wantRate := float64(len(events)) / last
	if r.Config.Rate != wantRate {
		t.Errorf("echoed rate %g, want %g", r.Config.Rate, wantRate)
	}
	// Mix is derived from trace composition in first-appearance order.
	if len(r.Config.Mix) != 2 || r.Config.Mix[0].Workload != sweep.WorkloadRotate {
		t.Errorf("derived mix wrong: %+v", r.Config.Mix)
	}
	first, _ := json.Marshal(r)
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := json.Marshal(r2)
	if string(first) != string(second) {
		t.Fatal("trace replay not deterministic")
	}
}

// TestServeTraceHorizonTruncates: an explicit horizon shorter than the
// trace drops the tail events.
func TestServeTraceHorizonTruncates(t *testing.T) {
	events := []TraceEvent{
		{T: 0.001, Workload: sweep.WorkloadHEMult},
		{T: 0.002, Workload: sweep.WorkloadHEMult},
		{T: 0.500, Workload: sweep.WorkloadHEMult},
	}
	r, err := Run(Config{
		Seed: 1, Spec: "TPUv5e", Set: "B", Pods: 1, MaxBatch: 2,
		HorizonS:    0.01,
		TraceEvents: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 2 {
		t.Fatalf("horizon 0.01 should admit 2 of 3 events, got %d", r.Requests)
	}
}

// TestTraceValidation: malformed traces are rejected up front.
func TestTraceValidation(t *testing.T) {
	cases := []struct {
		name   string
		events []TraceEvent
		mix    []MixEntry
	}{
		{"decreasing times", []TraceEvent{
			{T: 0.2, Workload: sweep.WorkloadHEMult},
			{T: 0.1, Workload: sweep.WorkloadHEMult},
		}, nil},
		{"negative time", []TraceEvent{{T: -1, Workload: sweep.WorkloadHEMult}}, nil},
		{"unknown workload", []TraceEvent{{T: 0.1, Workload: "warp-drive"}}, nil},
		{"workload outside mix", []TraceEvent{{T: 0.1, Workload: sweep.WorkloadRotate}},
			hemultOnly()},
	}
	for _, tc := range cases {
		cfg := Config{Spec: "TPUv5e", Set: "B", Pods: 1, TraceEvents: tc.events, Mix: tc.mix}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: trace accepted", tc.name)
		}
	}
}

// TestLoadTraceJSONAndCSV: both on-disk formats load to the same events.
func TestLoadTraceJSONAndCSV(t *testing.T) {
	dir := t.TempDir()
	want := []TraceEvent{
		{T: 0.001, Workload: sweep.WorkloadHEMult},
		{T: 0.003, Workload: sweep.WorkloadRotate},
		{T: 0.004, Workload: sweep.WorkloadHEMult},
	}

	jpath := filepath.Join(dir, "trace.json")
	blob, _ := json.Marshal(want)
	if err := os.WriteFile(jpath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(dir, "trace.csv")
	csv := "t,workload\n# ramp segment\n0.001," + sweep.WorkloadHEMult +
		"\n0.003," + sweep.WorkloadRotate + "\n0.004," + sweep.WorkloadHEMult + "\n"
	if err := os.WriteFile(cpath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{jpath, cpath} {
		got, err := LoadTrace(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d", path, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s event %d: got %+v, want %+v", path, i, got[i], want[i])
			}
		}
	}

	if _, err := LoadTrace(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing trace file accepted")
	}
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("t,workload\nnot-a-number,"+sweep.WorkloadHEMult+"\n"), 0o644)
	if _, err := LoadTrace(bad); err == nil {
		t.Error("malformed CSV accepted")
	}
}

// TestTracePathEndToEnd: Config.TracePath loads the file during
// prepare and replays it, same as inline TraceEvents.
func TestTracePathEndToEnd(t *testing.T) {
	dir := t.TempDir()
	events := rampTrace()
	blob, _ := json.Marshal(events)
	path := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	fromPath, err := Run(Config{
		Seed: 1, Spec: "TPUv5e", Set: "B", Pods: 2, Policy: PolicyJSQ,
		MaxBatch: 4, TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	inline, err := Run(Config{
		Seed: 1, Spec: "TPUv5e", Set: "B", Pods: 2, Policy: PolicyJSQ,
		MaxBatch: 4, TraceEvents: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fromPath.Requests != inline.Requests || fromPath.Latency != inline.Latency {
		t.Errorf("trace-path run differs from inline events: %+v vs %+v",
			fromPath.Latency, inline.Latency)
	}
}

// TestPoissonSourceMatchesLegacyDraws: the extracted Poisson source is
// the legacy arrival loop verbatim — pinned indirectly by the golden
// test, but checked directly here at the source level: draws are
// reproducible and respect the horizon.
func TestPoissonSourceMatchesLegacyDraws(t *testing.T) {
	mix := []MixEntry{
		{Workload: sweep.WorkloadHEMult, Weight: 3},
		{Workload: sweep.WorkloadRotate, Weight: 1},
	}
	a := newPoissonSource(7, 1000, 0.1, mix)
	b := newPoissonSource(7, 1000, 0.1, mix)
	n := 0
	for {
		ta, ca, oka := a.Next()
		tb, cb, okb := b.Next()
		if oka != okb || ta != tb || ca != cb {
			t.Fatalf("draw %d diverged: (%g,%d,%v) vs (%g,%d,%v)", n, ta, ca, oka, tb, cb, okb)
		}
		if !oka {
			break
		}
		if ta > 0.1 {
			t.Fatalf("draw %d beyond horizon: %g", n, ta)
		}
		if ca < 0 || ca >= len(mix) {
			t.Fatalf("draw %d class out of range: %d", n, ca)
		}
		n++
	}
	if n == 0 {
		t.Fatal("poisson source produced no arrivals")
	}
}

// TestSourceErrorsReachCallers: an out-of-order custom source fails
// Run, Chaos and Plan with ErrArrivalOrder rather than being silently
// reordered.
func TestSourceErrorsReachCallers(t *testing.T) {
	cfg := func() Config {
		return Config{
			Spec: "TPUv5e", Set: "B", Pods: 2, HorizonS: 0.01, Mix: hemultOnly(),
			Source: &sliceSource{times: []float64{0.001, 0.003, 0.002}, classes: []int{0, 0, 0}},
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := Run(cfg()); return err }},
		{"Chaos", func() error {
			_, err := Chaos(ChaosConfig{Serve: cfg(), MTBFGrid: []float64{0, 0.005}})
			return err
		}},
		{"Plan", func() error {
			_, err := Plan(PlanConfig{Base: cfg(), TargetP99S: 1})
			return err
		}},
	} {
		if err := tc.run(); !errors.Is(err, ErrArrivalOrder) {
			t.Errorf("%s: err = %v, want ErrArrivalOrder", tc.name, err)
		}
	}
}

// TestBuiltInSourcesNotCappedOnDraw: prepare bounds the built-in
// sources by their expected size, and the drawn count is capped only
// for a custom source. So a Plan whose full-capacity probe draws past
// the cap (prepare checks only the auto rate, 0.7 × capacity) runs,
// and so does a Poisson run whose expectation sits just under the cap,
// whatever its seed.
func TestBuiltInSourcesNotCappedOnDraw(t *testing.T) {
	defer func(n int) { maxRequests = n }(maxRequests)
	maxRequests = 200
	fleet := []FleetGroup{{Device: "TPUv5e", Count: 2}}
	base := Config{Set: "B", Fleet: fleet, HorizonS: 1e-3, Mix: hemultOnly()}
	_, _, capRate, err := prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 0.9 * float64(maxRequests) / (autoRateFraction * capRate)
	if capRate*horizon <= float64(maxRequests) {
		t.Fatalf("capacity probe expects %g requests, not past the cap %d", capRate*horizon, maxRequests)
	}
	base.HorizonS = horizon
	if _, err := Plan(PlanConfig{Base: base, Fleets: [][]FleetGroup{fleet}, TargetP99S: 1}); err != nil {
		t.Errorf("Plan with a capacity probe past the cap: %v", err)
	}

	run := base
	run.Rate = float64(maxRequests-1) / horizon
	over := false
	for seed := int64(1); seed <= 20; seed++ {
		run.Seed = seed
		r, err := Run(run)
		if err != nil {
			t.Fatalf("seed %d: Poisson run just under the cap: %v", seed, err)
		}
		over = over || r.Requests > maxRequests
	}
	if !over {
		t.Error("no seed drew past the cap; the case is not exercised")
	}
}
