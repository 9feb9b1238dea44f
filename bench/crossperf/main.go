// Command crossperf is the repository benchmark for the CKKS host stack
// and the serving model. It runs four closed-loop workloads, checks
// every output, and prints each end-to-end metric by name and unit; its
// last line is one JSON object. With -trace 1 it runs a traced phase,
// an op tour and layer probes, prints the per-layer metrics, and writes
// the spans as Chrome trace-event JSON.
//
// Run from the repository root, which builds it under .bench_build/:
//
//	bash bench/run.sh -seed 1                      # all four workloads
//	bash bench/run.sh -workload serve-sim -trace 1 # one workload, traced
//
// See bench/README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cross/internal/hostbench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation's settings.
type options struct {
	seed     int64
	measure  time.Duration // timed phase length per workload
	quick    bool          // quickRequests requests instead of measure
	trace    bool
	traceDir string
	log      io.Writer // diagnostics
}

const (
	// quickRequests is the request count of -quick.
	quickRequests = 3
	// tourFloor is the precision floor of the op tour's outputs, which
	// read 6.3 bits at worst over seeds 1–6.
	tourFloor = 4
)

// result is everything measured for one workload.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Info holds numbers printed beside the metrics that BENCHMARK.json
	// does not gate: request counts, precision, failure share, and the
	// outside-in per-request layer estimates.
	Info      map[string]float64 `json:"info"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crossperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of keys, inputs and serve arrivals")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: run the traced phase and report the per-layer metrics")
	traceDir := fs.String("trace-dir", ".", "directory for the Chrome trace files of -trace 1")
	out := fs.String("out", "", "also write every metric, the environment and the seed to this JSON file")
	quick := fs.Bool("quick", false, "3 requests and short probes, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "crossperf: want -trace 0|1, -seconds > 0 and no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "crossperf:", err)
			return 2
		}
		selected = []workload{w}
	}
	o := options{
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		quick:    *quick,
		trace:    *trace == 1,
		traceDir: *traceDir,
		log:      stderr,
	}

	var results []*result
	for _, w := range selected {
		res, err := bench(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "crossperf: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, res)
		results = append(results, res)
	}
	if *out != "" {
		if err := writeResults(*out, o, results); err != nil {
			fmt.Fprintln(stderr, "crossperf:", err)
			return 1
		}
	}
	line, err := json.Marshal(summarize(results, o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "crossperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// bench sets a workload up, runs its untraced phase and, with -trace 1,
// its traced phase and probes.
func bench(w workload, o options) (*result, error) {
	res := &result{Workload: w.name, EndToEnd: map[string]float64{}, Info: map[string]float64{}}
	var ref *hostRef
	if w.scaled {
		ref = newHostRef()
	}

	// Set-up covers params, keys, input encryption, tap pre-encoding
	// and one untimed warm-up request. setup_s is the median over the
	// set-ups, each scaled by the reference readings around it; the
	// phases run on the last instance.
	reps, quick := w.setups, 0
	if o.quick {
		reps, quick = 1, quickRequests
	}
	var r runner
	var setupS []float64
	for k := 0; k < reps; k++ {
		r = nil
		runtime.GC()
		debug.FreeOSMemory()
		before := ref.ms()
		t := time.Now()
		var err error
		if r, err = w.setup(o.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := r.request(0, nil, false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		took := time.Since(t).Seconds()
		setupS = append(setupS, took*scale(before, ref.ms()))
	}
	res.EndToEnd["setup_s"] = median(setupS)

	measure := o.measure
	if o.trace {
		measure /= 2 // the other half is the traced phase
	}
	runtime.GC()
	ph := runPhase(r, measure, quick, nil, ref)
	bits := res.check(w, ph, r, o.log)
	st := ph.stats()
	res.EndToEnd["throughput_rps"] = st.rate
	res.EndToEnd["p50_ms"] = st.p50
	res.EndToEnd["p90_ms"] = st.p90
	res.EndToEnd["cpu_ms_per_req"] = st.cpuMs
	res.EndToEnd["alloc_mb_per_req"] = ph.allocB / 1e6 / float64(ph.requests())
	res.EndToEnd["heap_p90_mb"] = st.heapP90B / 1e6
	res.Info["requests"] = float64(ph.requests())
	if w.scaled {
		res.Info["ref_ms"] = st.refMs
		res.Info["p50_unscaled_ms"] = st.rawP50
	}
	if sim, ok := r.counts()["serve.sim_requests"]; ok {
		res.Info["sim_req_per_s"] = sim * st.rate
	}

	if o.trace {
		tbits, err := res.traced(w, o, r, ref, st)
		if err != nil {
			return nil, err
		}
		bits = append(bits, tbits...)
	}
	if len(bits) > 0 {
		res.Info["precision_bits"] = minOf(bits)
	}
	res.Info["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0
	return res, nil
}

// check verifies the outputs a phase retained, outside its timed region,
// and counts its requests and failures. It returns the checked
// precisions.
func (res *result) check(w workload, ph phase, r runner, log io.Writer) []float64 {
	bits, failed := r.verify()
	for _, b := range bits {
		if b < w.floor {
			failed++
		}
	}
	if ph.firstErr != nil {
		fmt.Fprintf(log, "crossperf: %s: %d requests failed, first: %v\n", w.name, ph.errors, ph.firstErr)
	}
	res.Attempted += ph.requests()
	res.Failed += ph.errors + failed
	return bits
}

// traced runs the traced phase, the op tour and the layer probes, and
// fills res.PerLayer. It returns the precisions of the checked request
// outputs.
func (res *result) traced(w workload, o options, r runner, ref *hostRef, untraced phaseStats) ([]float64, error) {
	tr := newTracer("client", "tour")
	reqLane, tourLane := tr.lanes[0], tr.lanes[1]

	measure, quick := o.measure/2, 0
	tourReps, probeReps, crossReps, sweepReps := 10, 64, 5, 3
	if o.quick {
		quick, tourReps, probeReps, crossReps, sweepReps = quickRequests, 2, 5, 1, 1
	}
	r.counts() // restart the per-request tallies at the traced phase
	runtime.GC()
	ph := runPhase(r, measure, quick, reqLane, ref)
	bits := res.check(w, ph, r, o.log)
	pl := r.counts()

	ctx, tourBits, err := tour(w, o.seed, tourLane, tourReps)
	if err != nil {
		return nil, err
	}
	for _, b := range tourBits {
		if b < tourFloor {
			res.Failed++
		}
	}
	res.Attempted += len(tourBits)
	res.Info["tour.precision_bits"] = minOf(tourBits)
	layers, err := probeLayers(ctx.Params, probeReps)
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	for k, v := range layers {
		pl[k] = v
	}
	cells := 0
	if pl["cross.lower_ms"], cells, err = probeCross(o.seed, crossReps); err != nil {
		return nil, fmt.Errorf("cross probe: %w", err)
	}
	res.Info["cross.cells"] = float64(cells)
	if pl["sweep.full_s"], err = probeSweep(sweepReps); err != nil {
		return nil, fmt.Errorf("sweep probe: %w", err)
	}

	reqSelf, tourSelf := selfTimes([]*lane{reqLane}), selfTimes([]*lane{tourLane})
	for _, c := range ckksCalls {
		xs := reqSelf["ckks."+c]
		if len(xs) == 0 {
			xs = tourSelf["ckks."+c]
		}
		pl["ckks."+c+"_ms"] = median(xs)
	}
	if len(bits) > 0 {
		pl["ckks.precision_bits"] = minOf(bits)
	} else {
		pl["ckks.precision_bits"] = minOf(tourBits)
	}
	n := float64(ph.requests())
	pl["runtime.gc_cycles_per_req"] = ph.gcCycles / n
	pl["runtime.gc_cpu_frac"] = ph.gcCPUFrac
	pl["runtime.heap_live_mb"] = ph.heapLiveB / 1e6
	pl["trace.overhead_frac"] = ph.stats().p50/untraced.p50 - 1
	for _, m := range perLayer {
		if _, ok := pl[m.name]; !ok {
			pl[m.name] = 0 // an exact count of a layer this workload bypasses
		}
	}
	res.PerLayer = pl

	// Outside-in estimates: kernel counts times probe times. They are
	// printed, not gated, because the probes run hot in cache.
	ring := (pl["ckks.ntt_limbs"]*pl["ring.ntt_us"] + pl["ckks.intt_limbs"]*pl["ring.intt_us"] +
		pl["ckks.automorph"]*pl["ring.automorph_us"]) / 1e3
	rns := pl["ckks.bconv_calls"] * (pl["rns.modup_us"] + pl["rns.moddown_us"]) / 2 / 1e3
	mod := (pl["ckks.vecmul_n"]*pl["modarith.vecmul_us"] + pl["ckks.vecadd_n"]*pl["modarith.vecadd_us"]) / 1e3
	var ckksSelf float64
	for name, xs := range reqSelf {
		if strings.HasPrefix(name, "ckks.") {
			for _, x := range xs {
				ckksSelf += x
			}
		}
	}
	res.Info["ring.ms_per_req"] = ring
	res.Info["rns.ms_per_req"] = rns
	res.Info["modarith.ms_per_req"] = mod
	res.Info["ckks.ms_per_req"] = ckksSelf / n
	res.Info["ckks.glue_ms_per_req"] = ckksSelf/n - ring - rns - mod
	// cross.lower_ms times a serial pass while Serve prices on two
	// workers, so the loop estimate is a lower bound.
	if xs := reqSelf["serve.run"]; len(xs) > 0 {
		res.Info["serve.run_ms"] = median(xs)
		res.Info["serve.loop_ms_per_req"] = median(xs) - pl["cross.lower_ms"]
	}

	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	res.TraceFile = filepath.Join(o.traceDir, "crossperf-trace-"+w.name+".json")
	if err := tr.write(res.TraceFile); err != nil {
		return nil, err
	}
	return bits, nil
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// printReport prints one workload's metrics, one per line.
func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s: %d requests attempted, %d failed ==\n", res.Workload, res.Attempted, res.Failed)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, res.EndToEnd[m.name], m.unit)
	}
	for _, k := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "  %-28s %14.6g   (not gated)\n", k, res.Info[k])
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "  per-layer (trace: %s)\n", res.TraceFile)
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, res.PerLayer[m.name], m.unit)
	}
}

// summarize builds the last line: end-to-end metrics untraced, per-layer
// metrics traced. With several workloads each name is prefixed by its
// workload.
func summarize(results []*result, traced bool) summary {
	s := summary{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		ms, vals := endToEnd, r.EndToEnd
		if traced {
			ms, vals = perLayer, r.PerLayer
		}
		for _, m := range ms {
			key := m.name
			if len(results) > 1 {
				key = r.Workload + "." + m.name
			}
			s.Metrics[key] = value{Value: vals[m.name], Unit: m.unit}
		}
	}
	return s
}

// writeResults stores every result with the seed and the host
// environment.
func writeResults(path string, o options, results []*result) error {
	data, err := json.MarshalIndent(struct {
		Seed    int64                 `json:"seed"`
		Env     hostbench.Environment `json:"env"`
		Results []*result             `json:"results"`
	}{o.seed, hostbench.CurrentEnvironment(), results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
