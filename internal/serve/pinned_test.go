package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"cross/internal/faults"
	"cross/internal/sweep"
)

// pinnedCase is one scenario whose JSON record is pinned by hash in
// testdata/records_pinned.json.
type pinnedCase struct {
	name string
	cfg  Config
}

// pinnedFaults turns every fault mechanism on: crashes, stragglers,
// batch errors, deadlines, retries, hedging and shedding. The deadline
// is a power of two, so on pinnedTrace's grid a timeout can fall on
// exactly the instant of a later arrival.
func pinnedFaults() *faults.Config {
	return &faults.Config{
		Seed: 5, MTBFS: 0.03, MTTRS: 0.006,
		StragglerFactor: 6, BatchErrorProb: 0.05,
		DeadlineS: 1.0 / 32, MaxRetries: 3, Hedge: true, QueueLimit: 48,
	}
}

// pinnedTrace is a replayed arrival stream with same-instant ties:
// every third arrival repeats its predecessor's time. Times sit on a
// 2^-20 s grid, so arrival + a power-of-two delay or deadline is exact
// and ties between arrivals and pushed events really occur.
func pinnedTrace() []TraceEvent {
	names := []string{sweep.WorkloadHEMult, sweep.WorkloadRotate}
	g := newSplitmix(11)
	var ev []TraceEvent
	t := 0.0
	for i := 0; i < 2500; i++ {
		if i%3 != 2 {
			t += float64(g.next()%100) / (1 << 20)
		}
		ev = append(ev, TraceEvent{T: t, Workload: names[g.next()%uint64(len(names))]})
	}
	return ev
}

// pinnedCases covers every seam of the event loop: the four dispatch
// policies under both stats modes, fault-free and with every fault on,
// a batch-hold delay, SLO classes with an admission limit, and trace
// replay. Each run offers a few thousand requests, so the streaming
// runs leave the exact buffer and exercise the P² estimators.
func pinnedCases() []pinnedCase {
	fleet := []FleetGroup{
		{Device: "TPUv6e", Cores: 1, Count: 3},
		{Device: "H100", Cores: 8, Count: 1},
	}
	mix := []MixEntry{
		{Workload: sweep.WorkloadHEMult, Weight: 0.6},
		{Workload: sweep.WorkloadRotate, Weight: 0.4},
	}
	base := Config{Seed: 3, Set: "B", Fleet: fleet, MaxBatch: 4, Rate: 25000, HorizonS: 0.12, Mix: mix}

	var cases []pinnedCase
	for _, pol := range []string{PolicyRoundRobin, PolicyLeastLoaded, PolicyJSQ, PolicyCheapest} {
		for _, stats := range []string{StatsStored, StatsStreaming} {
			for _, faulty := range []bool{false, true} {
				c := base
				c.Policy, c.Stats = pol, stats
				name := pol + "/" + stats
				if faulty {
					c.Faults = pinnedFaults()
					name += "/faults"
				}
				cases = append(cases, pinnedCase{name, c})
			}
		}
	}

	delay := base
	delay.Policy, delay.MaxDelayS = PolicyJSQ, 2e-4
	cases = append(cases, pinnedCase{"max-delay", delay})

	slo := base
	slo.Policy, slo.Rate, slo.HorizonS = PolicyLeastLoaded, 2500, 0.4
	slo.Classes = []SLOClass{
		{Name: "interactive", Priority: 10, DeadlineS: 0.01, QueueLimit: 24},
		{Name: "batch", QueueLimit: 16},
	}
	slo.Mix = []MixEntry{
		{Workload: sweep.WorkloadHEMult, Weight: 0.5, Class: "interactive"},
		{Workload: sweep.WorkloadRotate, Weight: 0.3, Class: "interactive"},
		{Workload: sweep.WorkloadMNIST, Weight: 0.2, Class: "batch"},
	}
	cases = append(cases, pinnedCase{"slo-queue-limit", slo})
	sloFaults := slo
	sloFaults.Stats, sloFaults.Faults = StatsStreaming, pinnedFaults()
	cases = append(cases, pinnedCase{"slo-queue-limit/streaming/faults", sloFaults})

	trace := Config{Seed: 3, Set: "B", Fleet: fleet, MaxBatch: 4, Policy: PolicyJSQ, TraceEvents: pinnedTrace()}
	cases = append(cases, pinnedCase{"trace", trace})
	traceDelay := trace
	traceDelay.MaxDelayS = 1.0 / (1 << 13)
	cases = append(cases, pinnedCase{"trace/max-delay", traceDelay})
	traceFaults := trace
	traceFaults.Faults = pinnedFaults()
	cases = append(cases, pinnedCase{"trace/faults", traceFaults})
	return cases
}

// TestServeRecordsPinned is the byte-identity contract for the whole
// event loop: each scenario's JSON record must hash to the value
// committed in testdata/records_pinned.json. golden_prefault.json
// covers only the legacy fault-free configuration; these pins cover
// every policy, both stats modes, the fault layer, batch holding, SLO
// admission and trace replay, so an engine refactor that reorders any
// event shows up here.
func TestServeRecordsPinned(t *testing.T) {
	blob, err := os.ReadFile("testdata/records_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, c := range pinnedCases() {
		seen[c.name] = true
		r, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		got := hex.EncodeToString(sum[:])
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no pinned hash (got %s)", c.name, got)
		} else if got != w {
			t.Errorf("%s: record hash %s, pinned %s", c.name, got, w)
		}
	}
	var stale []string
	for name := range want {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("pinned hashes with no scenario: %v", stale)
	}
}
