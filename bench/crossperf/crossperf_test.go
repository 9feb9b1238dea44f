package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// specUnits maps each listed metric name to its unit.
func specUnits(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return stdout.String(), code
}

func lastLine(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return s
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	for _, c := range []struct {
		kind string
		want map[string]string
		got  []metric
	}{
		{"end_to_end", specUnits(spec.EndToEnd), endToEnd},
		{"per_layer", specUnits(spec.PerLayer), perLayer},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", c.kind, len(c.got), len(c.want))
		}
		for _, m := range c.got {
			if u, ok := c.want[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s [%s] is not in BENCHMARK.json (unit there %q)", c.kind, m.name, m.unit, u)
			}
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, listed)
	}
}

// TestQuickAllWorkloads runs every workload's untraced and traced
// phases for a few requests and checks the results file: every metric
// present, every output correct, precision floors and serve invariants
// held, and a trace file that parses as trace-event JSON.
func TestQuickAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	resultsPath := filepath.Join(dir, "results.json")
	out, code := runCLI(t, "-quick", "-trace", "1", "-trace-dir", dir, "-out", resultsPath, "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if s := lastLine(t, out); !s.Correct || s.Failed != 0 || s.Attempted == 0 {
		t.Errorf("summary %+v", s)
	}

	data, err := os.ReadFile(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Seed int64
		Env  struct {
			NumCPU int `json:"num_cpu"`
		} `json:"env"`
		Results []*result
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Seed != 3 || file.Env.NumCPU == 0 || len(file.Results) != len(workloads) {
		t.Fatalf("results file: seed %d, env %+v, %d results", file.Seed, file.Env, len(file.Results))
	}
	for i, res := range file.Results {
		w := workloads[i]
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		for _, m := range endToEnd {
			if v, ok := res.EndToEnd[m.name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.name, v)
			}
		}
		for _, m := range perLayer {
			if _, ok := res.PerLayer[m.name]; !ok {
				t.Errorf("%s: per-layer %s missing", w.name, m.name)
			}
		}
		// Times are measured on every workload. Fractions are left out:
		// three requests may see no GC cycle.
		for _, m := range perLayer {
			if m.unit != "count" && m.unit != "frac" && !(res.PerLayer[m.name] > 0) {
				t.Errorf("%s: per-layer %s = %v, want > 0 on every workload", w.name, m.name, res.PerLayer[m.name])
			}
		}
		if w.floor > 0 && !(res.Info["precision_bits"] >= w.floor) {
			t.Errorf("%s: precision %v bits below the %v-bit floor", w.name, res.Info["precision_bits"], w.floor)
		}
		checkTraceFile(t, res.TraceFile)
	}
	serve := file.Results[len(file.Results)-1]
	if serve.PerLayer["serve.sim_requests"] == 0 || serve.Info["cross.cells"] != 48 {
		t.Errorf("serve-sim: %v simulated requests, cross probe lowered %v cells, want 48",
			serve.PerLayer["serve.sim_requests"], serve.Info["cross.cells"])
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spans := 0
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			spans++
			if e.Dur < 0 {
				t.Errorf("%s: span %s has negative duration", path, e.Name)
			}
		}
	}
	if spans == 0 {
		t.Errorf("%s: no spans", path)
	}
}

// TestResultLineContract checks the last line of a single-workload run:
// exactly the end-to-end metrics untraced, exactly the per-layer ones
// traced, each with its unit.
func TestResultLineContract(t *testing.T) {
	spec := loadSpec(t)
	for _, c := range []struct {
		trace string
		want  map[string]string
	}{
		{"0", specUnits(spec.EndToEnd)},
		{"1", specUnits(spec.PerLayer)},
	} {
		out, code := runCLI(t, "--workload", "serve-sim", "--seed", "2", "--seconds", "1",
			"--trace", c.trace, "-quick", "-trace-dir", t.TempDir())
		if code != 0 {
			t.Fatalf("trace %s: exit %d", c.trace, code)
		}
		s := lastLine(t, out)
		if len(s.Metrics) != len(c.want) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(s.Metrics), len(c.want))
		}
		for name, v := range s.Metrics {
			if c.want[name] != v.Unit {
				t.Errorf("trace %s: %s [%s] not listed with that unit", c.trace, name, v.Unit)
			}
		}
	}
}

func TestBadFlagsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"extra"},
	} {
		if _, code := runCLI(t, args...); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

func TestPhaseStatsScaling(t *testing.T) {
	// Ten requests of 1..10 ms under a steady reference: as measured
	// with no reference or at the nominal speed, halved at half speed.
	for _, c := range []struct{ ref, f float64 }{{0, 1}, {refNominalMs, 1}, {2 * refNominalMs, 0.5}} {
		p := phase{ref0Ms: c.ref}
		for i := 1; i <= 10; i++ {
			p.done = append(p.done, completion{latMs: float64(i), cpuMs: float64(i), refMs: c.ref, liveB: float64(i) * 1e6})
		}
		got := p.stats()
		want := phaseStats{p50: 5 * c.f, p90: 9 * c.f, rate: 1e3 / (5.5 * c.f), cpuMs: 5.5 * c.f,
			heapP90B: 9e6, refMs: c.ref, rawP50: 5}
		for name, v := range map[string][2]float64{
			"p50": {got.p50, want.p50}, "p90": {got.p90, want.p90}, "rate": {got.rate, want.rate},
			"cpu": {got.cpuMs, want.cpuMs}, "heap": {got.heapP90B, want.heapP90B},
			"ref": {got.refMs, want.refMs}, "raw p50": {got.rawP50, want.rawP50},
		} {
			if math.Abs(v[0]-v[1]) > 1e-9*math.Max(1, v[1]) {
				t.Errorf("reference %v: %s %v, want %v", c.ref, name, v[0], v[1])
			}
		}
	}
	// A request is scaled by the geometric mean of the readings on both
	// sides of it: nominal before, four times nominal after.
	p := phase{ref0Ms: refNominalMs, done: []completion{{latMs: 10, refMs: 4 * refNominalMs}}}
	if got := p.stats().p50; math.Abs(got-5) > 1e-9 {
		t.Errorf("p50 %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	l := &lane{}
	ms := time.Millisecond
	l.spans = []span{
		{name: "request", start: 0, end: 10 * ms, parent: -1},
		{name: "ckks.add", start: 1 * ms, end: 3 * ms, parent: 0},
		{name: "ckks.add", start: 4 * ms, end: 8 * ms, parent: 0},
	}
	self := selfTimes([]*lane{l})
	if got := self["request"]; len(got) != 1 || got[0] != 4 {
		t.Errorf("request self time %v, want [4]", got)
	}
	if got := self["ckks.add"]; len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("add self times %v, want [2 4]", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.5); q != 5 {
		t.Errorf("p50 %v, want 5", q)
	}
	if q := quantile(xs, 0.9); q != 9 {
		t.Errorf("p90 %v, want 9", q)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median %v, want 5.5", m)
	}
}
