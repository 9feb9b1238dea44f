// Package serve is the discrete-event serving simulator: the layer
// that turns the per-operator Schedule IR into an end-to-end system
// study of "heavy traffic from millions of users" (the ROADMAP's north
// star). An arrival source offers a workload mix {HE-Mult, Rotate,
// Bootstrap, MNIST, HELR} to a fleet of pods; a dynamic batching
// policy (max batch size + max queue delay) groups queued requests of
// one class into batched program launches priced via Program.Batch
// through the shared cross.ScheduleCache; and a dispatch policy
// (round-robin, least-loaded, join-shortest-queue, cheapest) spreads
// requests across the fleet. The output is one stable JSON record:
// offered load, achieved throughput, pod utilization, queue depth, and
// p50/p95/p99 latency.
//
// The serving model is built from four pluggable seams (DESIGN.md
// §12):
//
//   - Fleets: Config.Fleet declares a heterogeneous fleet as
//     {device, cores, count, dollar_per_hour} groups resolved through
//     the device registry, each with its own priced service-time table
//     and per-launch dispatch overhead; the legacy Spec/Pods form is
//     the implicit single group. PolicyCheapest dispatches on
//     committed dollar-time.
//   - SLO classes: Config.Classes gives workloads per-class deadlines,
//     fleet-wide admission limits, and strict-priority (non-preemptive)
//     launch ordering, with per-class stats in the record.
//   - Arrivals: ArrivalSource generates the offered stream — seeded
//     Poisson (the default), deterministic trace replay from a
//     JSON/CSV file, or a caller-supplied source.
//   - Statistics: Config.Stats selects stored exact nearest-rank
//     quantiles (the default) or O(1)-memory streaming P² estimators,
//     which unlock 10^6+-request horizons.
//
// serve.Plan composes these into a capacity planner: for candidate
// fleet shapes it bisects the offered rate against a p99 SLO and
// reports requests/sec/dollar.
//
// Determinism contract (DESIGN.md §12): a Result is a pure function of
// its Config. Arrivals come from an owned splitmix64 PRNG (no
// dependency on math/rand's stream) or a fixed trace, the event loop
// is sequential with total event ordering (time, then insertion
// sequence), and the only concurrency — pre-pricing the batch-size ×
// workload service tables — computes pure Schedules whose values are
// independent of worker count. The JSON encoding of a Result is
// therefore bit-identical across runs and across Parallel values for a
// fixed seed (tested). A Config that uses none of the new seams
// (homogeneous fleet, Poisson arrivals, stored stats) produces a
// record byte-identical to the pre-seam simulator, pinned by
// testdata/golden_prefault.json.
//
// Fault model (DESIGN.md §16): Config.Faults threads the deterministic
// injectors of internal/faults through the event loop — pod
// crash/recover on exponential MTBF/MTTR clocks (an in-flight batch on
// a crashed pod is lost and retried), transient straggler windows that
// multiply a pod's service times, and i.i.d. batch-level transient
// errors — plus the client-side recovery machinery production stacks
// use to survive them: per-request deadlines (a timed-out request is
// never completed), retries with capped exponential backoff and
// deterministic jitter, hedged dispatch with first-wins cancellation,
// queue-depth admission control, and heartbeat-timeout down-pod
// detection (dispatch keeps routing to a just-crashed pod until the
// timeout fires — no oracle knowledge). Fault streams are seeded
// independently of arrivals, so one request trace replays under many
// fault seeds; a nil or zero-valued fault config reproduces the
// fault-free record byte-identically. Injector streams are split per
// pod, so they stay independent over non-uniform fleet groups too.
//
// Batching model: a batch of b same-class requests is priced as the
// b-replicated program (Program.Batch semantics: operator work scales
// linearly) minus the amortised kernel-launch overhead — stacking b
// operands into each kernel keeps the launch count constant, so b−1 of
// the b per-request dispatch shares are saved (the Fig. 11b batching
// effect). Service time is strictly increasing in b while per-request
// time strictly decreases, which is what makes batching win at high
// load. Each fleet group amortises its own part's dispatch overhead.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"cross/internal/cross"
	"cross/internal/faults"
	"cross/internal/sweep"
)

// Dispatch policies.
const (
	PolicyRoundRobin  = "round-robin"
	PolicyLeastLoaded = "least-loaded"
	PolicyJSQ         = "jsq" // join the shortest queue
	// PolicyCheapest minimizes committed cost: the candidate pod's
	// queue-drain time plus the request's own service time, weighted by
	// the pod's hourly price — on a heterogeneous fleet it prefers the
	// cheapest pod that is not already backed up.
	PolicyCheapest = "cheapest"
)

// Policies lists every dispatch policy.
var Policies = []string{PolicyRoundRobin, PolicyLeastLoaded, PolicyJSQ, PolicyCheapest}

// MixEntry is one workload class and its share of the arrival stream.
// Weights are relative (normalised internally); order is significant
// only for deterministic tie-breaks and the JSON echo. Class names the
// SLO class (Config.Classes) the workload's requests belong to; empty
// means the implicit default class (no deadline, no limit, priority 0).
type MixEntry struct {
	Workload string  `json:"workload"`
	Weight   float64 `json:"weight"`
	Class    string  `json:"class,omitempty"`
}

// DefaultMix is the standard serving mix: operator traffic dominated
// by cheap ops with a tail of full MNIST inferences.
func DefaultMix() []MixEntry {
	return []MixEntry{
		{Workload: sweep.WorkloadHEMult, Weight: 0.5},
		{Workload: sweep.WorkloadRotate, Weight: 0.3},
		{Workload: sweep.WorkloadMNIST, Weight: 0.2},
	}
}

// SLOClass is one service-level class: requests of its workloads get a
// per-class deadline, a fleet-wide queued-admission limit, and a
// strict (non-preemptive) launch priority — higher Priority launches
// first when both classes have a launchable batch on a pod.
type SLOClass struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`

	// DeadlineS is the per-request deadline from arrival (0 falls back
	// to the fleet-wide Faults.DeadlineS, if any).
	DeadlineS float64 `json:"deadline_s,omitempty"`

	// QueueLimit sheds an arrival when the class already has this many
	// requests queued fleet-wide (0 = unbounded). Checked before the
	// per-pod fault-layer QueueLimit.
	QueueLimit int `json:"queue_limit,omitempty"`
}

// Config selects one serving scenario. The zero value resolves to a
// 4-pod TPUv6e fleet under Set B serving DefaultMix at 70% of fleet
// capacity with batching up to 8. The resolved Config is echoed in
// the Result, so a record is self-describing and reproducible.
type Config struct {
	Seed int64 `json:"seed"` // arrival PRNG seed (0 → 1)

	Spec        string `json:"spec"`          // device name from the cross registry (default TPUv6e)
	Set         string `json:"set"`           // parameter-set letter (default "B")
	Pods        int    `json:"pods"`          // fleet size M (default 4)
	CoresPerPod int    `json:"cores_per_pod"` // cores/GPUs per fleet unit (default 1)

	// Fleet declares a heterogeneous fleet as device groups; mutually
	// exclusive with Spec/Pods/CoresPerPod (which describe the implicit
	// single group). Pod indices run group by group in declaration
	// order.
	Fleet []FleetGroup `json:"fleet,omitempty"`

	Policy string `json:"policy"` // dispatch policy (default round-robin)

	// Rate is the offered load in requests/s; ≤ 0 resolves to 70% of
	// the fleet's max-batch capacity (the echoed Config carries the
	// resolved value). With trace replay the trace defines the
	// arrivals and Rate echoes the trace's average offered rate.
	Rate float64 `json:"rate"`

	// HorizonS is the arrival window in simulated seconds; requests
	// arriving within it are all served to completion (the simulation
	// drains), so overload shows up as makespan ≫ horizon. With trace
	// replay, 0 resolves to the trace's last arrival time.
	HorizonS float64 `json:"horizon_s"`

	// TracePath replays arrivals from a trace file (JSON array of
	// {"t", "workload"} or CSV "t,workload" lines) instead of the
	// Poisson process; see LoadTrace for the schema. TraceEvents
	// supplies the same programmatically (it wins when both are set —
	// TracePath then only annotates the record). An unset Mix is
	// derived from the trace's composition.
	TracePath   string       `json:"trace_path,omitempty"`
	TraceEvents []TraceEvent `json:"-"`

	// Source overrides the arrival stream entirely. The caller owns
	// determinism: the Result is only reproducible if the source is.
	// Times must be nondecreasing and not NaN (ErrArrivalOrder),
	// classes must index Mix (ErrArrivalClass), and the stream must end
	// within the request cap (ErrRequestCap).
	Source ArrivalSource `json:"-"`

	// MaxBatch caps the per-launch batch size (default 8; 1 disables
	// batching). MaxDelayS caps how long an idle pod holds a non-full
	// batch open waiting for more same-class arrivals (0 = launch as
	// soon as the pod is free; batches then form only from backlog).
	MaxBatch  int     `json:"max_batch"`
	MaxDelayS float64 `json:"max_delay_s"`

	Mix []MixEntry `json:"mix"` // workload mix (default DefaultMix)

	// Classes defines the SLO classes Mix entries may reference; empty
	// means one implicit class with fleet-wide knobs only (the legacy
	// behaviour).
	Classes []SLOClass `json:"classes,omitempty"`

	// Overlap prices service times at Schedule.Overlapped (the
	// overlap-aware DAG makespan) instead of the serial Total —
	// the downstream half of the Schedule.PricedTotal switch. Part of
	// the record schema: two runs differing only in Overlap are
	// distinguishable from their echoed Configs.
	Overlap bool `json:"overlap"`

	// Stats selects the latency-statistics engine: "" or "stored" for
	// exact nearest-rank quantiles over retained samples (the legacy
	// path), "streaming" for O(1)-memory P² estimators (exact below
	// streamExactCutoff samples) that unlock 10^6+-request horizons.
	Stats string `json:"stats,omitempty"`

	// Faults enables the deterministic fault-injection and recovery
	// layer (DESIGN.md §16): pod crash/recover, transient stragglers,
	// batch-level transient errors, per-request deadlines, retries with
	// capped backoff, hedged dispatch, and admission control. nil — or
	// a pointer to the zero value, which withDefaults collapses to nil
	// — reproduces the fault-free Result byte-identically.
	Faults *faults.Config `json:"faults,omitempty"`

	// Parallel is the worker count for pre-pricing the service-time
	// table; ≤ 0 means NumCPU. Results are bit-identical at every
	// value, so it is excluded from the record schema.
	Parallel int `json:"-"`
}

// withDefaults resolves zero-value fields (Rate is resolved later,
// after pricing, because auto-rate needs the capacity).
func (cfg Config) withDefaults() Config {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Fleet) == 0 {
		if cfg.Spec == "" {
			cfg.Spec = "TPUv6e"
		}
		if cfg.Pods == 0 {
			cfg.Pods = 4
		}
		if cfg.CoresPerPod == 0 {
			cfg.CoresPerPod = 1
		}
	} else {
		fleet := append([]FleetGroup(nil), cfg.Fleet...) // copy: never mutate the caller's groups
		for i := range fleet {
			if fleet[i].Cores == 0 {
				fleet[i].Cores = 1
			}
			if fleet[i].DollarPerHour == 0 {
				fleet[i].DollarPerHour = defaultGroupDollar(fleet[i].Device, fleet[i].Cores)
			}
		}
		cfg.Fleet = fleet
	}
	if cfg.Set == "" {
		cfg.Set = "B"
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyRoundRobin
	}
	if cfg.HorizonS == 0 {
		cfg.HorizonS = 0.25
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.NumCPU()
	}
	if cfg.Faults != nil {
		if cfg.Faults.IsZero() {
			cfg.Faults = nil // zero-valued faults ≡ fault-free, byte-identically
		} else {
			f := cfg.Faults.WithDefaults(cfg.HorizonS)
			cfg.Faults = &f // copy: never mutate the caller's config
		}
	}
	return cfg
}

// validate rejects configurations the simulator cannot price.
func (cfg Config) validate() error {
	if len(cfg.Fleet) > 0 {
		if cfg.Spec != "" || cfg.Pods != 0 || cfg.CoresPerPod != 0 {
			return fmt.Errorf("serve: fleet and spec/pods/cores_per_pod are mutually exclusive — describe the whole fleet as groups")
		}
		for i, g := range cfg.Fleet {
			if _, ok := cross.TargetInfoByName(g.Device); !ok {
				return fmt.Errorf("serve: fleet group %d: unknown device %q (valid: %s)", i, g.Device, cross.TargetNames())
			}
			if g.Cores < 1 {
				return fmt.Errorf("serve: fleet group %d: pods need at least one core, got %d", i, g.Cores)
			}
			if g.Count < 1 {
				return fmt.Errorf("serve: fleet group %d: count must be ≥ 1, got %d", i, g.Count)
			}
			if g.DollarPerHour < 0 || math.IsNaN(g.DollarPerHour) || math.IsInf(g.DollarPerHour, 0) {
				return fmt.Errorf("serve: fleet group %d: dollar_per_hour must be finite and ≥ 0, got %g", i, g.DollarPerHour)
			}
		}
	} else {
		if _, ok := cross.TargetInfoByName(cfg.Spec); !ok {
			return fmt.Errorf("serve: unknown device %q (valid: %s)", cfg.Spec, cross.TargetNames())
		}
		if cfg.Pods < 1 {
			return fmt.Errorf("serve: fleet needs at least one pod, got %d", cfg.Pods)
		}
		if cfg.CoresPerPod < 1 {
			return fmt.Errorf("serve: pods need at least one core, got %d", cfg.CoresPerPod)
		}
	}
	if _, err := cross.NamedSet(cfg.Set); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	valid := false
	for _, p := range Policies {
		if cfg.Policy == p {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("serve: unknown policy %q (have %v)", cfg.Policy, Policies)
	}
	if cfg.HorizonS <= 0 {
		return fmt.Errorf("serve: horizon must be positive, got %g", cfg.HorizonS)
	}
	if cfg.MaxBatch < 1 {
		return fmt.Errorf("serve: max batch must be ≥ 1, got %d", cfg.MaxBatch)
	}
	if cfg.MaxDelayS < 0 {
		return fmt.Errorf("serve: max queue delay must be ≥ 0, got %g", cfg.MaxDelayS)
	}
	if cfg.Stats != "" && cfg.Stats != StatsStored && cfg.Stats != StatsStreaming {
		return fmt.Errorf("serve: unknown stats mode %q (have %q, %q)", cfg.Stats, StatsStored, StatsStreaming)
	}
	classIdx := make(map[string]int, len(cfg.Classes))
	for i, c := range cfg.Classes {
		if c.Name == "" {
			return fmt.Errorf("serve: class %d: empty name", i)
		}
		if _, dup := classIdx[c.Name]; dup {
			return fmt.Errorf("serve: class %q defined more than once", c.Name)
		}
		classIdx[c.Name] = i
		if c.DeadlineS < 0 || math.IsNaN(c.DeadlineS) || math.IsInf(c.DeadlineS, 0) {
			return fmt.Errorf("serve: class %q: deadline must be finite and ≥ 0, got %g", c.Name, c.DeadlineS)
		}
		if c.QueueLimit < 0 {
			return fmt.Errorf("serve: class %q: queue limit must be ≥ 0, got %d", c.Name, c.QueueLimit)
		}
	}
	// withDefaults guarantees a non-empty mix, so positive weights and
	// distinct workloads are all that is left to check. Duplicates must
	// be rejected: two entries for one workload would silently become
	// two classes with split weights and misleading per-workload stats.
	seen := make(map[string]bool, len(cfg.Mix))
	for _, e := range cfg.Mix {
		if e.Weight <= 0 {
			return fmt.Errorf("serve: mix weight for %q must be positive, got %g", e.Workload, e.Weight)
		}
		if seen[e.Workload] {
			return fmt.Errorf("%w: %q appears more than once", ErrDuplicateWorkload, e.Workload)
		}
		seen[e.Workload] = true
		if e.Class != "" {
			if _, ok := classIdx[e.Class]; !ok {
				return fmt.Errorf("serve: mix entry %q names unknown class %q", e.Workload, e.Class)
			}
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

// ErrDuplicateWorkload is returned when Config.Mix names one workload
// in more than one entry.
var ErrDuplicateWorkload = errors.New("serve: duplicate workload in mix")

// LatencyStats summarises a request-latency distribution (seconds).
// Quantiles are nearest-rank over the completed requests (P²
// estimates in streaming mode).
type LatencyStats struct {
	MeanS float64 `json:"mean_s"`
	P50S  float64 `json:"p50_s"`
	P95S  float64 `json:"p95_s"`
	P99S  float64 `json:"p99_s"`
	MaxS  float64 `json:"max_s"`
}

// PodStats is one pod's share of the run. Device is present only for
// explicit heterogeneous fleets (it names the pod's group part).
type PodStats struct {
	Pod           int     `json:"pod"`
	Device        string  `json:"device,omitempty"`
	Served        int     `json:"served"`  // requests completed
	Batches       int     `json:"batches"` // program launches
	BusyS         float64 `json:"busy_s"`
	Utilization   float64 `json:"utilization"` // BusyS / makespan
	MaxQueueDepth int     `json:"max_queue_depth"`
}

// WorkloadStats is one request class's share of the run. Requests
// counts delivered requests of the class (fault-free, every arrival is
// delivered, so it equals the arrival count).
type WorkloadStats struct {
	Workload string       `json:"workload"`
	Requests int          `json:"requests"`
	Latency  LatencyStats `json:"latency"`
}

// ClassStats is one SLO class's share of the run, present only when
// Config.Classes is set. Requests counts arrivals of the class;
// Completed + Shed + TimedOut + Failed + late deliveries accounts for
// all of them.
type ClassStats struct {
	Class     string       `json:"class"`
	Priority  int          `json:"priority"`
	Requests  int          `json:"requests"`
	Completed int          `json:"completed"` // delivered within deadline
	Shed      int          `json:"shed"`
	TimedOut  int          `json:"timed_out"`
	Failed    int          `json:"failed"`
	Goodput   float64      `json:"goodput"` // Completed / makespan
	Latency   LatencyStats `json:"latency"` // delivered requests
}

// CostStats is the record's cost section, present only for explicit
// heterogeneous fleets (Config.Fleet set).
type CostStats struct {
	DollarPerHour    float64 `json:"dollar_per_hour"`     // fleet hourly price
	RPSPerDollarHour float64 `json:"rps_per_dollar_hour"` // AchievedRate / DollarPerHour
	DollarPerMillion float64 `json:"dollar_per_million"`  // $ per 10^6 completed requests
}

// AvailabilityStats is the record's availability section, present
// only when the fault layer is enabled (Config.Faults non-nil).
// Completed + Shed + TimedOut + Failed always equals Requests.
type AvailabilityStats struct {
	// Goodput is requests completed within deadline per second of
	// makespan — the "requests/sec at N nines" capacity axis.
	Goodput float64 `json:"goodput"`

	Shed     int `json:"shed"`      // rejected by admission control
	TimedOut int `json:"timed_out"` // deadline expired before delivery
	Failed   int `json:"failed"`    // lost and retry budget exhausted
	Late     int `json:"late"`      // delivered after deadline (subset of timed out)

	Retries     int `json:"retries"`      // re-dispatches after lost launches
	Hedges      int `json:"hedges"`       // hedge launches issued
	HedgesWon   int `json:"hedges_won"`   // hedges that beat their primary
	Crashes     int `json:"crashes"`      // pod crash events
	BatchErrors int `json:"batch_errors"` // transiently failed launches

	// PodDowntimeS is each pod's total crashed time inside the run.
	PodDowntimeS []float64 `json:"pod_downtime_s"`

	// LatencyGood conditions the latency distribution on requests
	// completed within their deadline (Latency includes late
	// deliveries).
	LatencyGood LatencyStats `json:"latency_good"`
}

// Result is one serving run: the resolved Config plus the measured
// system behaviour. Field names are the stable JSON record schema
// (DESIGN.md §12); the encoding is bit-identical across runs and
// Parallel values for a fixed Config.
type Result struct {
	Config Config `json:"config"`

	// CapacityRate is the fleet's sustainable throughput ceiling
	// (requests/s) at full batches under the configured mix — the
	// saturation asymptote AchievedRate approaches under overload.
	CapacityRate float64 `json:"capacity_rate"`

	OfferedRate float64 `json:"offered_rate"` // resolved arrival rate
	Requests    int     `json:"requests"`     // arrivals in the horizon

	// Completed counts requests that finished within their deadline,
	// derived from finish events — fault-free the run drains, so it
	// equals Requests; under faults the rest are shed, timed out, or
	// failed (see Availability).
	Completed    int     `json:"completed"`
	MakespanS    float64 `json:"makespan_s"`    // last delivery time
	AchievedRate float64 `json:"achieved_rate"` // Completed / MakespanS

	MeanBatch     float64 `json:"mean_batch"`      // delivered requests per launch
	MaxQueueDepth int     `json:"max_queue_depth"` // fleet-wide peak

	Latency   LatencyStats    `json:"latency"`
	Pods      []PodStats      `json:"pods"`
	Workloads []WorkloadStats `json:"workloads"`

	// Classes is present only when Config.Classes is set.
	Classes []ClassStats `json:"classes,omitempty"`

	// Cost is present only for explicit heterogeneous fleets.
	Cost *CostStats `json:"cost,omitempty"`

	// Availability is present only when Config.Faults is enabled.
	Availability *AvailabilityStats `json:"availability,omitempty"`
}

// groupPrices is one fleet group's priced service-time model: for
// every mix class w, the base single-request latency and the batched
// service time for every batch size 1..MaxBatch, amortised with this
// part's own dispatch overhead.
type groupPrices struct {
	device        string
	cores         int
	count         int
	dollarPerHour float64
	base          []float64   // [class] single-request schedule total
	svc           [][]float64 // [class][b-1] batched service time, dispatch-amortised
}

// priceTable is the fleet's pre-priced service-time model: one
// groupPrices per fleet group plus the pod-index → group mapping.
type priceTable struct {
	groups   []groupPrices
	podGroup []int // [pod] group index
}

// groupOf returns the price table of the pod's group.
func (pt *priceTable) groupOf(pod int) *groupPrices { return &pt.groups[pt.podGroup[pod]] }

// price lowers every (group, class, batch) service time concurrently
// through one shared ScheduleCache (cache keys include the target
// name, so groups never collide). Schedules are pure functions of
// (target, params, operator), so the resulting table is independent of
// the worker count.
func price(cfg Config) (*priceTable, error) {
	fleet := cfg.resolvedFleet()
	params, err := cross.NamedSet(cfg.Set)
	if err != nil {
		return nil, err
	}

	pt := &priceTable{groups: make([]groupPrices, len(fleet))}
	// Each group's probe target supplies its own per-launch dispatch
	// overhead (XLA dispatch on TPUs, CUDA kernel launch on GPUs) for
	// the batching amortisation — a mixed-generation fleet must not
	// amortise an H100's launch cost with a TPU's constant.
	dispatch := make([]float64, len(fleet))
	for gi, g := range fleet {
		probe, err := cross.TargetByName(g.Device, g.Cores)
		if err != nil {
			return nil, err
		}
		dispatch[gi] = probe.Core().Spec.DispatchOverhead
		pt.groups[gi] = groupPrices{
			device: g.Device, cores: g.Cores, count: g.Count,
			dollarPerHour: g.DollarPerHour,
		}
		for p := 0; p < g.Count; p++ {
			pt.podGroup = append(pt.podGroup, gi)
		}
	}

	type task struct{ group, class, batch int }
	tasks := make([]task, 0, len(fleet)*len(cfg.Mix)*cfg.MaxBatch)
	raw := make([][][]float64, len(fleet))
	launches := make([][]int, len(fleet))
	for gi := range fleet {
		raw[gi] = make([][]float64, len(cfg.Mix))
		launches[gi] = make([]int, len(cfg.Mix))
		for w := range cfg.Mix {
			raw[gi][w] = make([]float64, cfg.MaxBatch)
			for b := 1; b <= cfg.MaxBatch; b++ {
				tasks = append(tasks, task{group: gi, class: w, batch: b})
			}
		}
	}

	cache := cross.NewScheduleCache()
	errs := make([]error, len(tasks))
	idx := make(chan int, len(tasks))
	for i := range tasks {
		idx <- i
	}
	close(idx)

	workers := cfg.Parallel
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t := tasks[i]
				g := fleet[t.group]
				// Targets are stateful trace accumulators, so every task
				// builds its own; only the schedule cache is shared.
				tgt, err := cross.TargetByName(g.Device, g.Cores)
				if err != nil {
					errs[i] = err
					continue
				}
				comp, err := cross.Compile(tgt, params)
				if err != nil {
					errs[i] = err
					continue
				}
				prog, err := sweep.BuildProgram(comp, cfg.Mix[t.class].Workload)
				if err != nil {
					errs[i] = err
					continue
				}
				s := prog.WithCache(cache).Batch(t.batch).Lower()
				raw[t.group][t.class][t.batch-1] = s.PricedTotal(cfg.Overlap)
				if t.batch == 1 {
					// Kernel launches per request (collectives are not XLA
					// launches and are not amortised by operand stacking).
					launches[t.group][t.class] = s.Kernels.Total() - s.Kernels.Collectives
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: pricing %s×%d on %s: %w",
				cfg.Mix[tasks[i].class].Workload, tasks[i].batch, fleet[tasks[i].group].Device, err)
		}
	}

	// Amortise dispatch: stacking b requests into each kernel keeps the
	// launch count constant, so a b-batch saves (b−1) of the per-request
	// dispatch shares (Fig. 11b). Guarded: the saving can never exceed
	// the request itself.
	for gi := range fleet {
		g := &pt.groups[gi]
		g.base = make([]float64, len(cfg.Mix))
		g.svc = raw[gi]
		for w := range cfg.Mix {
			g.base[w] = raw[gi][w][0]
			disp := float64(launches[gi][w]) * dispatch[gi]
			if disp >= g.base[w] {
				disp = 0
			}
			for b := 2; b <= cfg.MaxBatch; b++ {
				raw[gi][w][b-1] -= float64(b-1) * disp
			}
		}
	}
	return pt, nil
}

// capacity returns the fleet's sustainable request rate at full
// batches: each group contributes count / (its mix-weighted
// per-request service time at MaxBatch).
func (pt *priceTable) capacity(cfg Config) float64 {
	var sumW float64
	for _, e := range cfg.Mix {
		sumW += e.Weight
	}
	var capRate float64
	for _, g := range pt.groups {
		var mean float64
		for w, e := range cfg.Mix {
			perReq := g.svc[w][cfg.MaxBatch-1] / float64(cfg.MaxBatch)
			mean += (e.Weight / sumW) * perReq
		}
		if mean > 0 {
			capRate += float64(g.count) / mean
		}
	}
	return capRate
}

// meanBase is the pod-count-weighted, mix-weighted single-request
// service time — the scale the fault layer's auto-derived knobs
// (retry backoff base, heartbeat timeout) resolve against.
func (pt *priceTable) meanBase(cfg Config) float64 {
	var sumW float64
	for _, e := range cfg.Mix {
		sumW += e.Weight
	}
	total := 0
	for _, g := range pt.groups {
		total += g.count
	}
	var mean float64
	for _, g := range pt.groups {
		var m float64
		for w, e := range cfg.Mix {
			m += (e.Weight / sumW) * g.base[w]
		}
		mean += (float64(g.count) / float64(total)) * m
	}
	return mean
}

// autoRateFraction is the load factor auto-rate resolves to: busy
// enough to exercise queueing, below the saturation knee.
const autoRateFraction = 0.7

// maxRequests bounds the arrival count so an absurd rate × horizon
// cannot exhaust memory; streaming stats raise the bound (latencies
// are no longer retained, only the request table remains per-arrival).
// Variables only so tests can lower them.
var (
	maxRequests          = 2_000_000
	maxRequestsStreaming = 100_000_000
)

// ErrRequestCap is returned when a scenario offers more requests than
// its stats mode may hold (maxRequests, or maxRequestsStreaming).
var ErrRequestCap = errors.New("serve: request cap exceeded")

// requestCap is the arrival bound for a stats mode.
func requestCap(stats string) int {
	if stats == StatsStreaming {
		return maxRequestsStreaming
	}
	return maxRequests
}

// prepare resolves and validates the config, prices the service-time
// table, and resolves the offered rate against fleet capacity — the
// shared front half of Run, Chaos and Plan (which re-use one table
// across many runs; the table never depends on the fault config or the
// offered rate).
func prepare(cfg Config) (Config, *priceTable, float64, error) {
	// Trace resolution comes first: an unset horizon resolves to the
	// trace's end (not the Poisson default) and an unset mix to the
	// trace's composition.
	if cfg.TracePath != "" && len(cfg.TraceEvents) == 0 {
		ev, err := LoadTrace(cfg.TracePath)
		if err != nil {
			return cfg, nil, 0, err
		}
		cfg.TraceEvents = ev
	}
	if len(cfg.TraceEvents) > 0 {
		if err := validateTrace(cfg.TraceEvents, cfg.Mix); err != nil {
			return cfg, nil, 0, err
		}
		if len(cfg.Mix) == 0 {
			cfg.Mix = mixFromTrace(cfg.TraceEvents)
		}
		if cfg.HorizonS == 0 {
			if last := cfg.TraceEvents[len(cfg.TraceEvents)-1].T; last > 0 {
				cfg.HorizonS = last
			}
		}
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, nil, 0, err
	}
	pt, err := price(cfg)
	if err != nil {
		return cfg, nil, 0, err
	}
	capRate := pt.capacity(cfg)
	reqCap := requestCap(cfg.Stats)
	if len(cfg.TraceEvents) > 0 {
		n := 0
		for _, e := range cfg.TraceEvents {
			if e.T <= cfg.HorizonS {
				n++
			}
		}
		if n == 0 {
			return cfg, nil, 0, fmt.Errorf("serve: trace has no events within the %g s horizon", cfg.HorizonS)
		}
		if n > reqCap {
			return cfg, nil, 0, fmt.Errorf("%w: trace has %d events, exceeding the %d-request cap", ErrRequestCap, n, reqCap)
		}
		cfg.Rate = float64(n) / cfg.HorizonS // echo: the trace's average offered rate
		return cfg, pt, capRate, nil
	}
	if cfg.Rate <= 0 {
		cfg.Rate = autoRateFraction * capRate
	}
	if cfg.Rate <= 0 {
		return cfg, nil, 0, fmt.Errorf("serve: resolved arrival rate is zero (capacity %g)", capRate)
	}
	if cfg.Rate*cfg.HorizonS > float64(reqCap) {
		return cfg, nil, 0, fmt.Errorf("%w: rate %g × horizon %g s exceeds the %d-request cap",
			ErrRequestCap, cfg.Rate, cfg.HorizonS, reqCap)
	}
	return cfg, pt, capRate, nil
}

// runPrepared executes one prepared scenario: service-time-derived
// fault knobs are resolved here (they need the priced table), then
// the event loop runs to completion. The resolved fault config is
// echoed in the record, so a fault run is self-describing. The only
// errors come from a custom arrival source (ErrArrivalOrder,
// ErrArrivalClass, ErrRequestCap).
func runPrepared(cfg Config, pt *priceTable, capRate float64) (*Result, error) {
	if cfg.Faults != nil {
		f := *cfg.Faults
		mean := pt.meanBase(cfg)
		if f.MaxRetries > 0 && f.RetryBackoffS == 0 {
			f.RetryBackoffS = mean
		}
		if f.Crashes() && f.HeartbeatS == 0 {
			f.HeartbeatS = mean
		}
		cfg.Faults = &f
	}
	s, err := newSim(cfg, pt)
	if err != nil {
		return nil, err
	}
	s.run()
	return s.result(capRate), nil
}

// Run executes one serving scenario to completion and returns its
// record. See the package comment for the determinism contract.
func Run(cfg Config) (*Result, error) {
	cfg, pt, capRate, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	return runPrepared(cfg, pt, capRate)
}

// fleetLabel renders the fleet for the human-readable summary.
func (cfg Config) fleetLabel() string {
	if len(cfg.Fleet) == 0 {
		return fmt.Sprintf("%s ×%d pods (%d core(s) each)", cfg.Spec, cfg.Pods, cfg.CoresPerPod)
	}
	out := ""
	for i, g := range cfg.Fleet {
		if i > 0 {
			out += " + "
		}
		out += fmt.Sprintf("%s×%d (%d core(s))", g.Device, g.Count, g.Cores)
	}
	return out
}

// Summary renders the human-readable face of the record.
func (r *Result) Summary() string {
	load := 0.0
	if r.CapacityRate > 0 {
		load = r.OfferedRate / r.CapacityRate
	}
	pricing := ""
	if r.Config.Overlap {
		pricing = ", overlap-priced"
	}
	if r.Config.Stats == StatsStreaming {
		pricing += ", streaming stats"
	}
	arrivals := ""
	if len(r.Config.TraceEvents) > 0 || r.Config.TracePath != "" {
		arrivals = ", trace replay"
	}
	out := fmt.Sprintf(
		"serve %s, Set%s, policy %s, batch ≤ %d%s%s\n"+
			"offered %.1f req/s (%.0f%% of capacity %.1f), achieved %.1f req/s over %.4f s\n"+
			"latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  (mean %.3f, max %.3f)\n"+
			"batches %.2f requests/launch, peak queue depth %d\n",
		r.Config.fleetLabel(), r.Config.Set, r.Config.Policy, r.Config.MaxBatch, pricing, arrivals,
		r.OfferedRate, 100*load, r.CapacityRate, r.AchievedRate, r.MakespanS,
		r.Latency.P50S*1e3, r.Latency.P95S*1e3, r.Latency.P99S*1e3, r.Latency.MeanS*1e3, r.Latency.MaxS*1e3,
		r.MeanBatch, r.MaxQueueDepth)
	for _, p := range r.Pods {
		dev := ""
		if p.Device != "" {
			dev = " " + p.Device
		}
		out += fmt.Sprintf("  pod %d%s: served %5d in %4d launches, %5.1f%% busy, peak depth %d\n",
			p.Pod, dev, p.Served, p.Batches, 100*p.Utilization, p.MaxQueueDepth)
	}
	for _, w := range r.Workloads {
		out += fmt.Sprintf("  %-10s %6d requests, p50 %.3f ms, p99 %.3f ms\n",
			w.Workload, w.Requests, w.Latency.P50S*1e3, w.Latency.P99S*1e3)
	}
	for _, c := range r.Classes {
		out += fmt.Sprintf("  class %-10s prio %d: %6d requests, completed %d (shed %d, timed out %d, failed %d), goodput %.1f req/s, p99 %.3f ms\n",
			c.Class, c.Priority, c.Requests, c.Completed, c.Shed, c.TimedOut, c.Failed, c.Goodput, c.Latency.P99S*1e3)
	}
	if c := r.Cost; c != nil {
		out += fmt.Sprintf("cost: $%.2f/hr → %.2f req/s per $/hr ($%.3f per million requests)\n",
			c.DollarPerHour, c.RPSPerDollarHour, c.DollarPerMillion)
	}
	if av := r.Availability; av != nil {
		var down float64
		for _, d := range av.PodDowntimeS {
			down += d
		}
		downFrac := 0.0
		if r.MakespanS > 0 && len(av.PodDowntimeS) > 0 {
			downFrac = down / (r.MakespanS * float64(len(av.PodDowntimeS)))
		}
		out += fmt.Sprintf(
			"faults: goodput %.1f req/s, completed %d / shed %d / timed out %d / failed %d (late %d)\n"+
				"        retries %d, hedges %d (%d won), crashes %d, batch errors %d, fleet downtime %.1f%%\n"+
				"        in-deadline latency p50 %.3f ms  p99 %.3f ms\n",
			av.Goodput, r.Completed, av.Shed, av.TimedOut, av.Failed, av.Late,
			av.Retries, av.Hedges, av.HedgesWon, av.Crashes, av.BatchErrors, 100*downFrac,
			av.LatencyGood.P50S*1e3, av.LatencyGood.P99S*1e3)
	}
	return out
}
