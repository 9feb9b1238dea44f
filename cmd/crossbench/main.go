// Command crossbench regenerates the paper's evaluation section: every
// table and figure of §V, with paper-reported values printed next to
// the reproduction's measurements. It is also the repo's perf oracle:
// sweep lowers the full {param set × device × core count × workload}
// cross-product — every registered device, TPU generations and GPU
// parts alike — in parallel, and sweep -compare diffs the fresh sweep
// against a committed baseline, exiting non-zero on regression (the CI
// gate). versus prices named targets ("TPUv6e-16,H100-8") head-to-head
// on every workload: the cross-hardware comparison.
//
// Usage:
//
//	crossbench                     # run everything (paper order)
//	crossbench list                # list experiment identifiers
//	crossbench experiment ID       # run one experiment ("Table V", "fig11b", …)
//	crossbench scaling             # core-count scaling sweep (1/2/4/8 cores)
//	crossbench scaling -device TPUv5p                 # any registered device (TPU or GPU)
//	crossbench versus TPUv6e-16,H100-8                # cross-hardware head-to-head (Set D)
//	crossbench versus -set B A100-80GB-8,H100-8 -out versus.json
//	crossbench sweep -parallel 8 -json                # full sweep, machine-readable
//	crossbench sweep -compare BENCH_baseline.json     # fresh sweep vs baseline; exit 1 on regression
//	crossbench sweep -compare BENCH_baseline.json -threshold 0.01 -out sweep.json
//	crossbench hostbench                              # measure host kernels (real ns/op + allocs/op)
//	crossbench hostbench -compare BENCH_host.json -out hostbench.json  # wall-clock gate (25%)
//	crossbench calib                                  # fit the model's free constants to ground truth
//	crossbench calib -compare BENCH_calib.json -out calib.json         # model-drift gate (10%)
//	crossbench calib -repeats 9 -parallel 8           # more timing samples, wider fitter pool
//	crossbench refresh-baselines   # rewrite BENCH_baseline/BENCH_host/BENCH_calib .json in one run
//	crossbench serve               # serving simulator: 4-pod fleet at 70% capacity
//	crossbench serve -rate 2000 -pods 8 -policy jsq -json
//	crossbench serve -device TPUv4 -set A -batch 8 -delay 0.001 -horizon 0.5
//	crossbench serve -mix "HE-Mult=0.6,Rotate=0.3,MNIST=0.1" -seed 42
//	crossbench serve -overlap                         # price batches at the overlap-aware makespan
//	crossbench serve -mtbf 0.05 -retries 3 -hedge     # any fault flag turns fault injection on
//	crossbench serve -deadline 0.02 -shed 32          # deadlines + load shedding
//	crossbench serve -fleet "TPUv6e:1:4+H100:1:2" -policy cheapest  # heterogeneous fleet + cost section
//	crossbench serve -trace arrivals.csv              # replay a recorded arrival trace
//	crossbench serve -stats streaming -rate 50000 -horizon 30  # O(1)-memory long horizon
//	crossbench serve -classes "interactive:10:0.02,batch:0" -mix "HE-Mult=0.6@interactive,MNIST=0.4@batch"
//	crossbench chaos               # goodput vs crash-MTBF grid (availability curve)
//	crossbench chaos -retries 3 -hedge -deadline 0.05 -json
//	crossbench plan -slo 0.02      # capacity plan: req/s/$ ladder of the base device
//	crossbench plan -slo 0.02 -fleets "TPUv6e:1:4,TPUv6e:1:2+H100:1:1"
//	crossbench prof -device TPUv6e -set D -op mult -cores 4  # one operator's lowered Schedule
//	crossbench ntt -device TPUv6e -logn 14           # radix-2 vs 4-step vs MAT NTT batch table
//
// Every subcommand takes only its own flags (crossbench SUBCOMMAND -h
// lists them). With -json a subcommand emits JSON instead of the
// formatted text: list prints a string array of identifiers; sweep
// prints the sweep records (deterministic and stably ordered —
// bit-identical at every -parallel value, so the output is committable
// as a baseline); -compare prints the classified diff; the experiment
// subcommands print Report objects ({"ID","Title","Body","Notes"}).
//
// Run with: go run ./cmd/crossbench [SUBCOMMAND] [flags]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"cross"
	icross "cross/internal/cross"
	"cross/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// An action runs a subcommand once its flags are parsed; args holds
// the positional arguments.
type action func(args []string, w io.Writer) error

// A command registers its flags on a fresh FlagSet and returns the
// action that reads them. arg names its one positional argument; a
// command with an empty arg takes none.
type command struct {
	arg   string
	setup func(fs *flag.FlagSet) action
}

// commands maps each subcommand to its definition; "" is the bare
// crossbench invocation.
var commands = map[string]command{
	"":                  {setup: allCmd},
	"list":              {setup: listCmd},
	"experiment":        {arg: "ID", setup: experimentCmd},
	"scaling":           {setup: scalingCmd},
	"versus":            {arg: "TARGETS", setup: versusCmd},
	"sweep":             {setup: sweepCmd},
	"hostbench":         {setup: hostbenchCmd},
	"calib":             {setup: calibCmd},
	"refresh-baselines": {setup: refreshCmd},
	"serve":             {setup: serveCmd},
	"chaos":             {setup: chaosCmd},
	"plan":              {setup: planCmd},
	"prof":              {setup: profCmd},
	"ntt":               {setup: nttCmd},
}

// errRegressed fails a -compare gate; the diff itself is on stdout.
var errRegressed = errors.New("regression against the baseline")

// run dispatches one crossbench invocation and returns its exit code:
// 0 on success, 1 when the subcommand fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	var names []string
	for n := range commands {
		if n != "" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	c, ok := commands[name]
	if !ok {
		fmt.Fprintf(stderr, "crossbench: unknown subcommand %q (have %s)\n", name, strings.Join(names, ", "))
		return 2
	}
	fs := flag.NewFlagSet(strings.TrimSpace("crossbench "+name+" "+c.arg), flag.ContinueOnError)
	fs.SetOutput(stderr)
	if name == "" {
		fs.Usage = func() {
			fmt.Fprintf(stderr, "usage: crossbench [-json] | crossbench SUBCOMMAND [flags]\nsubcommands: %s\n", strings.Join(names, ", "))
			fs.PrintDefaults()
		}
	}
	act := c.setup(fs)
	pos, err := parse(fs, args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // the flag package has already printed the problem and the usage
	}
	want := 0
	if c.arg != "" {
		want = 1
	}
	if len(pos) != want {
		fmt.Fprintf(stderr, "%s: want %d positional argument(s), got %q\n", fs.Name(), want, pos)
		return 2
	}
	if err := act(pos, stdout); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return 1
	}
	return 0
}

// parse parses args into fs, letting flags follow positional arguments
// ("versus TPUv6e-16,H100-8 -json"), and returns the positionals.
func parse(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			return pos, nil
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

// output is the record emitter every reporting subcommand shares: -json
// selects JSON over the text rendering, and -out (where registered)
// also writes the fresh records to a file, so CI keeps the artifact
// without running the measurement twice.
type output struct {
	json bool
	out  string
}

func outputFlags(fs *flag.FlagSet, withOut bool) *output {
	o := &output{}
	fs.BoolVar(&o.json, "json", false, "emit machine-readable JSON instead of formatted text")
	if withOut {
		fs.StringVar(&o.out, "out", "", "also write the fresh records JSON to this file")
	}
	return o
}

// save writes v to the -out file, if one was given.
func (o *output) save(v any) error {
	if o.out == "" {
		return nil
	}
	return writeJSONFile(o.out, v)
}

// print writes v to w: as JSON under -json, otherwise as text.
func (o *output) print(w io.Writer, v any, text string) error {
	if o.json {
		return writeJSON(w, v)
	}
	_, err := io.WriteString(w, text)
	return err
}

// emit saves v to -out and prints it.
func (o *output) emit(w io.Writer, v any, text string) error {
	if err := o.save(v); err != nil {
		return err
	}
	return o.print(w, v, text)
}

// gate prints the diff against the baseline file and fails when the
// diff could not be made or holds a regression.
func (o *output) gate(w io.Writer, baseline string, diff cross.GateResult, err error) error {
	if err != nil {
		return fmt.Errorf("compare against %s: %w", baseline, err)
	}
	if err := o.print(w, diff, diff.Summary()); err != nil {
		return err
	}
	if diff.HasRegressions() {
		return errRegressed
	}
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readJSON decodes a committed baseline file into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// fitWorkers maps the -parallel convention (0 = NumCPU) onto the
// calibration fitter's worker count.
func fitWorkers(parallel int) int {
	if parallel == 0 {
		return runtime.NumCPU()
	}
	return parallel
}

func allCmd(fs *flag.FlagSet) action {
	o := outputFlags(fs, false)
	return func(_ []string, w io.Writer) error {
		all := cross.AllExperiments()
		var b strings.Builder
		b.WriteString("CROSS reproduction — regenerating the paper's evaluation (§V)\n")
		b.WriteString("simulated TPU latencies are model estimates; compare shapes, not absolutes\n\n")
		for _, exp := range all {
			b.WriteString(exp.String() + "\n")
		}
		return o.print(w, all, b.String())
	}
}

func listCmd(fs *flag.FlagSet) action {
	o := outputFlags(fs, false)
	return func(_ []string, w io.Writer) error {
		ids := cross.ExperimentIDs()
		return o.print(w, ids, strings.Join(ids, "\n")+"\n")
	}
}

func experimentCmd(fs *flag.FlagSet) action {
	o := outputFlags(fs, false)
	return func(args []string, w io.Writer) error {
		exp, err := cross.ExperimentByID(args[0])
		if err != nil {
			return err
		}
		return o.print(w, exp, exp.String()+"\n")
	}
}

func scalingCmd(fs *flag.FlagSet) action {
	device := fs.String("device", "TPUv6e", "device to scale ("+cross.TargetNames()+")")
	o := outputFlags(fs, false)
	return func(_ []string, w io.Writer) error {
		r, err := harness.CoreScalingOn(*device)
		if err != nil {
			return err
		}
		return o.print(w, r, r.String()+"\n")
	}
}

func versusCmd(fs *flag.FlagSet) action {
	set := fs.String("set", "D", "parameter-set letter A-D")
	o := outputFlags(fs, true)
	return func(args []string, w io.Writer) error {
		targets := strings.Split(args[0], ",")
		for i := range targets {
			targets[i] = strings.TrimSpace(targets[i])
		}
		v, err := harness.Versus(targets, *set)
		if err != nil {
			return err
		}
		return o.emit(w, v, v.Report().String()+"\n")
	}
}

func sweepCmd(fs *flag.FlagSet) action {
	parallel := fs.Int("parallel", 0, "sweep worker count (0 = NumCPU); output is identical at every value")
	compare := fs.String("compare", "", "diff the fresh sweep against this baseline JSON (BENCH_baseline.json); exit 1 on regression")
	threshold := fs.Float64("threshold", 0.005, "fractional regression threshold for -compare (0.005 = 0.5%)")
	o := outputFlags(fs, true)
	return func(_ []string, w io.Writer) error {
		var baseline []cross.SweepRecord
		if *compare != "" {
			if err := readJSON(*compare, &baseline); err != nil {
				return err
			}
			if len(baseline) == 0 {
				return fmt.Errorf("%s holds no sweep records", *compare)
			}
		}
		recs, err := cross.Sweep(cross.SweepConfig{Parallel: *parallel})
		if err != nil {
			return err
		}
		if *compare != "" {
			if err := o.save(recs); err != nil {
				return err
			}
			diff, err := cross.SweepDiff(baseline, recs, *threshold)
			return o.gate(w, *compare, diff, err)
		}
		var b strings.Builder
		for _, r := range recs {
			fmt.Fprintf(&b, "%-32s %12.4g s  (overlapped %.4g s, collective %.4g s, %d kernel launches)\n",
				r.ID, r.TotalS, r.OverlappedS, r.CollectiveS, r.Kernels.Total())
		}
		return o.emit(w, recs, b.String())
	}
}

func hostbenchCmd(fs *flag.FlagSet) action {
	compare := fs.String("compare", "", "diff the fresh run against this baseline JSON (BENCH_host.json); exit 1 on regression")
	threshold := fs.Float64("threshold", 0.25, "fractional ns/op regression threshold for -compare (generous: shared CI runners are noisy)")
	o := outputFlags(fs, true)
	return func(_ []string, w io.Writer) error {
		var baseline cross.HostBenchFile
		if *compare != "" {
			if err := readJSON(*compare, &baseline); err != nil {
				return err
			}
			if len(baseline.Records) == 0 {
				return fmt.Errorf("%s holds no host benchmark records", *compare)
			}
		}
		file, err := cross.HostBenchRunFile()
		if err != nil {
			return err
		}
		if *compare != "" {
			if err := o.save(file); err != nil {
				return err
			}
			diff, err := cross.HostBenchDiffFiles(baseline, file, *threshold)
			return o.gate(w, *compare, diff, err)
		}
		var b strings.Builder
		for _, r := range file.Records {
			fmt.Fprintf(&b, "%-28s %12.0f ns/op %8.3g allocs/op\n", r.ID, r.NsPerOp, r.AllocsPerOp)
		}
		return o.emit(w, file, b.String())
	}
}

func calibCmd(fs *flag.FlagSet) action {
	compare := fs.String("compare", "", "diff the fresh report against this baseline JSON (BENCH_calib.json); exit 1 on model drift")
	threshold := fs.Float64("threshold", 0.10, "absolute model-error growth that fails -compare (published-source drift is deterministic)")
	repeats := fs.Int("repeats", 0, "raw timing samples per host measurement point (default 5)")
	parallel := fs.Int("parallel", 0, "fitter worker count (0 = NumCPU)")
	o := outputFlags(fs, true)
	return func(_ []string, w io.Writer) error {
		var baseline cross.CalibReport
		if *compare != "" {
			if err := readJSON(*compare, &baseline); err != nil {
				return err
			}
			if len(baseline.Records) == 0 {
				return fmt.Errorf("%s holds no calibration records", *compare)
			}
		}
		rep, err := cross.Calib(cross.CalibConfig{Repeats: *repeats, Parallel: fitWorkers(*parallel)})
		if err != nil {
			return err
		}
		if *compare != "" {
			if err := o.save(rep); err != nil {
				return err
			}
			diff, err := cross.CalibDiff(&baseline, rep, *threshold)
			return o.gate(w, *compare, diff, err)
		}
		return o.emit(w, rep, rep.Summary())
	}
}

// refreshCmd rewrites all three committed baselines from one fresh run
// — the single documented workflow for intentional model or hardware
// changes (DESIGN.md §15).
func refreshCmd(fs *flag.FlagSet) action {
	parallel := fs.Int("parallel", 0, "sweep and fitter worker count (0 = NumCPU)")
	repeats := fs.Int("repeats", 0, "calib: raw timing samples per host measurement point (default 5)")
	return func(_ []string, w io.Writer) error {
		recs, err := cross.Sweep(cross.SweepConfig{Parallel: *parallel})
		if err != nil {
			return err
		}
		if err := writeJSONFile("BENCH_baseline.json", recs); err != nil {
			return err
		}
		fmt.Fprintf(w, "BENCH_baseline.json  %d sweep record(s)\n", len(recs))

		file, err := cross.HostBenchRunFile()
		if err != nil {
			return err
		}
		if err := writeJSONFile("BENCH_host.json", file); err != nil {
			return err
		}
		fmt.Fprintf(w, "BENCH_host.json      %d host record(s), %s\n", len(file.Records), file.Env.CPUModel)

		rep, err := cross.Calib(cross.CalibConfig{Repeats: *repeats, Parallel: fitWorkers(*parallel)})
		if err != nil {
			return err
		}
		if err := writeJSONFile("BENCH_calib.json", rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "BENCH_calib.json     %d calibration record(s)\n", len(rep.Records))
		_, err = io.WriteString(w, rep.Summary())
		return err
	}
}

// serveFlags registers the flags serve, chaos and plan share and binds
// them to a cross.ServeConfig; finish parses the structured ones into
// it once the flags are parsed. withFaults adds -fleet and the fault
// model, which plan does not take: it sweeps its own -fleets, fault-free.
func serveFlags(fs *flag.FlagSet, withFaults bool) (cfg *cross.ServeConfig, finish func() error) {
	cfg = &cross.ServeConfig{}
	fs.StringVar(&cfg.Spec, "device", "TPUv6e", "device of every pod ("+cross.TargetNames()+")")
	fs.StringVar(&cfg.Set, "set", "B", "parameter-set letter A-D")
	fs.Float64Var(&cfg.Rate, "rate", 0, "offered load in requests/s (0 = 70% of fleet capacity)")
	fs.IntVar(&cfg.Pods, "pods", 0, "fleet size in pods (default 4)")
	fs.IntVar(&cfg.CoresPerPod, "cores", 0, "cores per pod (default 1)")
	fs.StringVar(&cfg.Policy, "policy", "", "dispatch policy (round-robin, least-loaded, jsq, cheapest)")
	fs.Int64Var(&cfg.Seed, "seed", 0, "arrival PRNG seed (default 1)")
	fs.Float64Var(&cfg.HorizonS, "horizon", 0, "arrival window in simulated seconds (default 0.25)")
	fs.IntVar(&cfg.MaxBatch, "batch", 0, "max batch size per launch (default 8; 1 disables batching)")
	fs.Float64Var(&cfg.MaxDelayS, "delay", 0, "max queue delay in seconds an idle pod holds a non-full batch (default 0)")
	fs.BoolVar(&cfg.Overlap, "overlap", false, "price service times at the overlap-aware Overlapped latency instead of the serial Total")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "pre-pricing worker count (0 = NumCPU); output is identical at every value")
	mix := fs.String("mix", "", `workload mix as "HE-Mult=0.6,Rotate=0.3,MNIST=0.1" (default mixed operator+MNIST traffic)`)
	classes := fs.String("classes", "", `SLO classes "name:priority[:deadline_s[:queue_limit]]", comma-separated; bind mix entries with weight@class`)
	var fleet string
	var faults cross.FaultConfig
	if withFaults {
		fs.StringVar(&fleet, "fleet", "", `heterogeneous fleet "device:cores:count[:dollar_hr]" groups joined by "+" (replaces -device/-pods/-cores)`)
		fs.Int64Var(&faults.Seed, "fault-seed", 0, "fault injector PRNG seed, independent of -seed (default 1)")
		fs.Float64Var(&faults.MTBFS, "mtbf", 0, "per-pod mean time between crashes in seconds (0 = no crashes)")
		fs.Float64Var(&faults.MTTRS, "mttr", 0, "per-pod mean time to recover in seconds (default mtbf/10)")
		fs.Float64Var(&faults.StragglerFactor, "straggler", 0, "transient-straggler slowdown factor ≥ 1 (0 = off)")
		fs.Float64Var(&faults.BatchErrorProb, "batcherr", 0, "i.i.d. probability that a batch launch fails transiently")
		fs.Float64Var(&faults.DeadlineS, "deadline", 0, "per-request deadline in seconds; timed-out requests never count completed (0 = none)")
		fs.IntVar(&faults.MaxRetries, "retries", 0, "max re-dispatches for a request lost to a crash or batch error")
		fs.BoolVar(&faults.Hedge, "hedge", false, "hedged dispatch: copy a slow batch to an idle pod, first finisher wins")
		fs.IntVar(&faults.QueueLimit, "shed", 0, "shed arrivals when the dispatched pod already queues this many requests (0 = unbounded)")
	}
	return cfg, func() error {
		if fleet != "" {
			f, err := cross.ServeParseFleet(fleet)
			if err != nil {
				return err
			}
			cfg.Fleet = f
			cfg.Spec, cfg.Pods, cfg.CoresPerPod = "", 0, 0
		}
		if *mix != "" {
			m, err := parseMix(*mix)
			if err != nil {
				return err
			}
			cfg.Mix = m
		}
		if *classes != "" {
			cs, err := parseClasses(*classes)
			if err != nil {
				return err
			}
			cfg.Classes = cs
		}
		if withFaults {
			cfg.Faults = &faults // a zero FaultConfig serves fault-free, byte-identically
		}
		return nil
	}
}

// parseMix parses "-mix HE-Mult=0.6,Rotate=0.3,MNIST=0.1" into the
// serve mix schema. A weight may carry an SLO-class binding after
// "@": "HE-Mult=0.6@interactive" (the class must appear in -classes).
func parseMix(s string) ([]cross.ServeMixEntry, error) {
	var mix []cross.ServeMixEntry
	for _, part := range strings.Split(s, ",") {
		wl, weight, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not workload=weight", part)
		}
		weight, class, _ := strings.Cut(weight, "@")
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil {
			return nil, fmt.Errorf("mix entry %q: %w", part, err)
		}
		mix = append(mix, cross.ServeMixEntry{Workload: wl, Weight: w, Class: class})
	}
	return mix, nil
}

// parseClasses parses "-classes name:priority[:deadline_s[:queue_limit]]"
// entries, comma-separated: "interactive:10:0.02,batch:0".
func parseClasses(s string) ([]cross.ServeSLOClass, error) {
	var classes []cross.ServeSLOClass
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("class %q is not name:priority[:deadline_s[:queue_limit]]", part)
		}
		c := cross.ServeSLOClass{Name: fields[0]}
		var err error
		if c.Priority, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("class %q priority: %w", part, err)
		}
		if len(fields) >= 3 {
			if c.DeadlineS, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("class %q deadline: %w", part, err)
			}
		}
		if len(fields) == 4 {
			if c.QueueLimit, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("class %q queue limit: %w", part, err)
			}
		}
		classes = append(classes, c)
	}
	return classes, nil
}

// serveCmd runs one serving scenario; any fault flag turns the fault
// layer on (DESIGN.md §16).
func serveCmd(fs *flag.FlagSet) action {
	cfg, finish := serveFlags(fs, true)
	fs.StringVar(&cfg.TracePath, "trace", "", "replay arrivals from a JSON or CSV trace file instead of the Poisson source")
	fs.StringVar(&cfg.Stats, "stats", "", "latency statistics mode: stored (exact, default) or streaming (O(1) memory for long horizons)")
	o := outputFlags(fs, true)
	return func(_ []string, w io.Writer) error {
		if err := finish(); err != nil {
			return err
		}
		r, err := cross.Serve(*cfg)
		if err != nil {
			return err
		}
		return o.emit(w, r, r.Summary())
	}
}

// chaosCmd reruns the serving scenario across the default crash-MTBF
// grid and emits the availability curve. The fault flags set the
// recovery knobs; the grid overrides -mtbf per cell.
func chaosCmd(fs *flag.FlagSet) action {
	cfg, finish := serveFlags(fs, true)
	o := outputFlags(fs, true)
	return func(_ []string, w io.Writer) error {
		if err := finish(); err != nil {
			return err
		}
		r, err := cross.ServeChaos(cross.ServeChaosConfig{Serve: *cfg})
		if err != nil {
			return err
		}
		return o.emit(w, r, r.Summary())
	}
}

// planCmd sweeps the candidate fleets for the highest rate meeting the
// p99 target and emits the req/s/$ frontier.
func planCmd(fs *flag.FlagSet) action {
	cfg, finish := serveFlags(fs, false)
	fleets := fs.String("fleets", "", "comma-separated candidate fleet specs (default 1/2/4/8-pod ladder of -device)")
	slo := fs.Float64("slo", 0, "target p99 latency in seconds")
	o := outputFlags(fs, true)
	return func(_ []string, w io.Writer) error {
		if err := finish(); err != nil {
			return err
		}
		pc := cross.ServePlanConfig{Base: *cfg, TargetP99S: *slo}
		if *fleets != "" {
			f, err := cross.ServeParseFleets(*fleets)
			if err != nil {
				return err
			}
			pc.Fleets = f
		}
		r, err := cross.ServePlan(pc)
		if err != nil {
			return err
		}
		return o.emit(w, r, r.Summary())
	}
}

// profCmd prints the Fig. 12-style lowered Schedule of one HE operator
// on one target — the reproduction's stand-in for the XLA profiler
// trace viewer.
func profCmd(fs *flag.FlagSet) action {
	device := fs.String("device", "TPUv6e", "device ("+cross.TargetNames()+")")
	set := fs.String("set", "D", "parameter-set letter A-D")
	op := fs.String("op", "mult", "operator: add, mult, rescale, rotate, keyswitch, bootstrap, ntt, intt")
	batch := fs.Int("batch", 1, "batch size for ntt/intt")
	cores := fs.Int("cores", 1, "core count: 1 profiles a single core, >1 a pod")
	return func(_ []string, w io.Writer) error {
		if *cores < 1 {
			return fmt.Errorf("-cores must be ≥ 1, got %d", *cores)
		}
		if (*op == "ntt" || *op == "intt") && *batch < 1 {
			return fmt.Errorf("-batch must be ≥ 1, got %d", *batch)
		}
		params, err := icross.NamedSet(*set)
		if err != nil {
			return err
		}
		target, err := cross.TargetByName(*device, *cores)
		if err != nil {
			return err
		}
		comp, err := cross.Compile(target, params)
		if err != nil {
			return err
		}
		var sched *cross.Schedule
		switch *op {
		case "add":
			sched = comp.LowerHEAdd()
		case "mult":
			sched = comp.LowerHEMult()
		case "rescale":
			sched = comp.LowerRescale()
		case "rotate":
			sched = comp.LowerRotate()
		case "keyswitch":
			sched = comp.LowerKeySwitch()
		case "bootstrap":
			sched = comp.LowerBootstrap(cross.DefaultBootstrapSchedule(params))
		case "ntt":
			sched = comp.LowerNTT(*batch)
		case "intt":
			sched = comp.LowerINTT(*batch)
		default:
			return fmt.Errorf("unknown -op %q (want add, mult, rescale, rotate, keyswitch, bootstrap, ntt or intt)", *op)
		}
		_, err = fmt.Fprintf(w, "Set %s (N=2^%d, L=%d, dnum=%d, split %dx%d)\n%s",
			*set, params.LogN, params.L, params.Dnum, params.R, params.C, sched)
		return err
	}
}

// nttCmd compares the three NTT lowerings the paper analyses — radix-2
// Cooley–Tukey (Alg. 3), 4-step with explicit transpose, and the MAT
// layout-invariant 3-step (Fig. 10) — across batch sizes.
func nttCmd(fs *flag.FlagSet) action {
	device := fs.String("device", "TPUv6e", "device ("+cross.TargetNames()+")")
	logN := fs.Int("logn", 13, "ring degree exponent, in [3, 17]")
	return func(_ []string, w io.Writer) error {
		if *logN < 3 || *logN > 17 {
			return fmt.Errorf("-logn %d outside the compiler's range [3, 17]", *logN)
		}
		p := icross.SetA()
		p.LogN = *logN
		p.R = min(128, p.N()/2)
		p.C = p.N() / p.R
		target, err := cross.TargetByName(*device, 1)
		if err != nil {
			return err
		}
		comp, err := cross.Compile(target, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "NTT algorithm comparison on %s at N=2^%d (split %dx%d):\n\n", *device, *logN, p.R, p.C)
		fmt.Fprintf(w, "%-8s%16s%16s%16s%14s\n", "batch", "radix-2 µs", "4-step µs", "MAT 3-step µs", "MAT kNTT/s")
		for batch := 1; batch <= 128; batch <<= 1 {
			radix2 := comp.LowerNTTRadix2(batch).Total
			four := comp.LowerNTT4Step(batch).Total
			mat := comp.LowerNTT(batch).Total
			fmt.Fprintf(w, "%-8d%16.1f%16.1f%16.1f%14.0f\n",
				batch, radix2*1e6, four*1e6, mat*1e6, float64(batch)/mat/1e3)
		}
		best, thr := comp.BestNTTBatch(256)
		fmt.Fprintf(w, "\npeak: batch %d → %.0f kNTT/s per tensor core\n", best, thr/1e3)
		_, err = fmt.Fprint(w, "\n(Tab. X context: the paper measures ~25–30× radix-2 → MAT speedup on\n"+
			" TPUv4 at batch 128; the ratio here should be the same order.)\n")
		return err
	}
}
