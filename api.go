// Package cross is a Go reproduction of "Leveraging ASIC AI Chips for
// Homomorphic Encryption" (HPCA 2026): the CROSS compiler framework
// that maps CKKS homomorphic-encryption kernels onto TPU-class AI
// accelerators via Basis-Aligned Transformation (BAT, high-precision
// modular arithmetic → dense INT8 matrix multiplication) and
// Memory-Aligned Transformation (MAT, offline-embedded data
// reorderings → layout-invariant kernels).
//
// The public API has three layers:
//
//   - HE layer: Context bundles a full functional RNS-CKKS instance
//     (encode → encrypt → evaluate → decrypt), running bit-exactly on
//     the CPU.
//   - Compiler layer: Compile(target, params) returns a Compiler for
//     any Target — a simulated TPU tensor core (Device), a multi-core
//     slice (Pod), a GPU (GPUDevice) or an NVLink node (GPUNode); all
//     satisfy the same interface and share one lowering code path, and
//     the device registry (TargetByName) instantiates any of them from
//     a name + core count. The Compiler's Lower* methods are the only
//     way to price work; each returns a Schedule: a structured
//     artifact carrying total latency, the per-category breakdown,
//     kernel-invocation counts, and shard/collective metadata — plus
//     the overlap-aware latency pair: every lowering is also recorded
//     as a dependency DAG of timed segments (SegDAG) executed by a
//     discrete-event engine, so a Schedule reports both Total (the
//     paper-faithful serial model) and Overlapped (collectives and HBM
//     streaming hidden behind compute; DESIGN.md §13). NewProgram
//     composes multi-operator HE workloads (mult → rotate → bootstrap
//     → …) into one costed, memoized schedule.
//   - Experiments layer: Experiment/AllExperiments regenerate every
//     table and figure of the paper's §V with paper-vs-measured rows,
//     plus the beyond-paper core-count scaling sweep.
//   - Sweep layer: Sweep lowers the full {param set × TPU spec × pod
//     size × workload} cross-product on a worker pool and emits
//     deterministic records; SweepDiff classifies regressions against
//     a committed baseline — the CI perf gate (crossbench sweep
//     -compare).
//   - Host perf layer: HostBenchRunFile measures the functional CPU
//     kernels' real ns/op and steady-state allocs/op at fixed sizes;
//     HostBenchDiffFiles gates wall time against a generous threshold
//     and allocations strictly at zero drift (crossbench hostbench,
//     BENCH_host.json). All three gates return one GateResult.
//   - Serving layer: Serve runs the discrete-event serving simulator —
//     an open-loop arrival process over a workload mix, dynamic
//     batching, and fleet dispatch across M pods — and returns one
//     deterministic record of offered load, achieved throughput, pod
//     utilization, queue depth, and tail latency (crossbench serve).
//     FaultConfig adds the deterministic fault model (pod
//     crash/recover, stragglers, batch errors) and recovery machinery
//     (deadlines, retries, hedging, load shedding, heartbeat
//     detection); ServeChaos sweeps goodput across a crash-MTBF grid
//     (crossbench serve with any fault flag, crossbench chaos;
//     DESIGN.md §16).
//   - Calibration layer: Calib pairs every measurable kernel latency
//     (host wall clock plus the paper's published TPU/GPU figures)
//     with the simulator's prediction for the same work, fits the
//     model's free constants (Calibration) by deterministic least
//     squares, and reports per-kernel model error; CalibDiff gates
//     model drift against the committed BENCH_calib.json (crossbench
//     calib).
//
// See DESIGN.md (§ "Schedule IR & Targets") for the system inventory
// and EXPERIMENTS.md for the reproduction results.
package cross

import (
	"fmt"

	"cross/internal/bat"
	"cross/internal/calib"
	"cross/internal/ckks"
	icross "cross/internal/cross"
	"cross/internal/faults"
	"cross/internal/gate"
	"cross/internal/gpusim"
	"cross/internal/harness"
	"cross/internal/hostbench"
	"cross/internal/modarith"
	"cross/internal/ring"
	"cross/internal/serve"
	"cross/internal/sweep"
	"cross/internal/tpusim"
	"cross/internal/workload"
)

// ---- Compiler layer ----

// Params is a CKKS security/performance configuration (paper Tab. IV).
type Params = icross.Params

// Compiler lowers HE operators onto a Target; its Lower* methods
// return the priced Schedules.
type Compiler = icross.Compiler

// Device is one simulated TPU tensor core.
type Device = tpusim.Device

// DeviceSpec describes a TPU generation.
type DeviceSpec = tpusim.Spec

// Calibration holds the model's free constants — per-spec launch
// overhead, effective-bandwidth fractions, NTT efficiency — carried on
// DeviceSpec/GPUSpec. The zero value resolves to the hand-picked
// defaults (bit-identical pricing); Calib fits them to ground truth.
type Calibration = tpusim.Calibration

// ReduceAlgorithm selects the modular-reduction flavour (Fig. 13).
type ReduceAlgorithm = modarith.ReduceAlgorithm

// Reduction algorithms.
const (
	Barrett    = modarith.Barrett
	Montgomery = modarith.Montgomery
	Shoup      = modarith.Shoup
	BATLazy    = modarith.BATLazy
)

// Parameter sets from the paper's Tab. IV.
var (
	SetA = icross.SetA
	SetB = icross.SetB
	SetC = icross.SetC
	SetD = icross.SetD
)

// TPU generation specs (Tab. IV).
var (
	TPUv4  = tpusim.TPUv4
	TPUv5e = tpusim.TPUv5e
	TPUv5p = tpusim.TPUv5p
	TPUv6e = tpusim.TPUv6e
)

// NewDevice instantiates a simulated tensor core.
func NewDevice(spec DeviceSpec) *Device { return tpusim.NewDevice(spec) }

// ---- Target / Schedule IR layer ----

// Target is the hardware a Compiler lowers onto. Both *Device and
// *Pod satisfy it; the compiler's single lowering code path shards
// independent work across Target.NumCores() and charges collective
// cost through the Target's interconnect methods. A Device is the
// 1-core degenerate case, bit-identical to a 1-core Pod.
type Target = icross.Target

// Schedule is the compiler's lowering artifact: one operator (or a
// whole Program) lowered onto a Target, with total latency, the
// Fig. 12-style per-category breakdown, kernel-invocation counts, and
// shard/collective metadata.
type Schedule = icross.Schedule

// KernelCounts tallies the kernel launches of one Schedule.
type KernelCounts = icross.KernelCounts

// SegDAG is the dependency DAG of timed segments behind a Schedule's
// Overlapped latency: nodes are compute / VMEM / HBM / ICI segments,
// edges are execution-order dependencies, and Execute returns the
// DAG's makespan under the deterministic discrete-event engine
// (DESIGN.md §13).
type SegDAG = icross.SegDAG

// SegNode is one timed segment of a SegDAG.
type SegNode = icross.SegNode

// SegKind classifies the resource a SegDAG segment occupies.
type SegKind = icross.SegKind

// Segment kinds.
const (
	SegCompute = icross.SegCompute
	SegVMEM    = icross.SegVMEM
	SegHBM     = icross.SegHBM
	SegICI     = icross.SegICI
)

// NewSegDAG returns an empty segment DAG (hand-built DAGs are how the
// engine's critical-path semantics are unit-tested).
func NewSegDAG() *SegDAG { return icross.NewSegDAG() }

// Program composes multi-operator HE workloads into one costed,
// memoized schedule: NewProgram(c).HEMult().Rotate(1).Batch(64).Lower().
type Program = icross.Program

// BootstrapSchedule is the operator budget of one packed bootstrapping.
type BootstrapSchedule = icross.BootstrapSchedule

// Compile builds a CROSS compiler for any lowering target — a tensor
// core or a pod — and parameter set.
func Compile(t Target, p Params) (*Compiler, error) { return icross.Compile(t, p) }

// NewProgram starts an empty workload program on a compiler.
func NewProgram(c *Compiler) *Program { return icross.NewProgram(c) }

// DefaultBootstrapSchedule returns the MAD packed-bootstrapping
// operator budget for a parameter set.
func DefaultBootstrapSchedule(p Params) BootstrapSchedule {
	return icross.DefaultBootstrapSchedule(p)
}

// ---- Pod / sharded-lowering layer ----

// Pod is a multi-core TPU slice: N tensor cores joined by the
// inter-chip interconnect, with ring-collective cost models
// (AllReduceTime, BroadcastTime, …).
type Pod = tpusim.Pod

// NewPod instantiates an n-core pod of one TPU generation.
func NewPod(spec DeviceSpec, cores int) (*Pod, error) { return tpusim.NewPod(spec, cores) }

// ---- GPU backend & device registry ----

// GPUSpec describes a GPU part (A100/H100 class): native figures —
// SMs, tensor/CUDA-core throughput, HBM/L2/SMEM bandwidths, NVLink —
// that project onto the same roofline the TPU backend prices.
type GPUSpec = gpusim.Spec

// GPUDevice is one simulated GPU (the 1-core degenerate Target).
type GPUDevice = gpusim.Device

// GPUNode is N GPUs joined by NVLink (ring) or NVSwitch (all-to-all),
// with topology-aware collective cost models.
type GPUNode = gpusim.Node

// GPUTopology selects the node interconnect (ring vs NVSwitch).
type GPUTopology = gpusim.Topology

// GPU part specs.
var (
	A100_40GB = gpusim.A100_40GB
	A100_80GB = gpusim.A100_80GB
	H100      = gpusim.H100
)

// NewGPUDevice instantiates one simulated GPU.
func NewGPUDevice(spec GPUSpec) *GPUDevice { return gpusim.NewDevice(spec) }

// NewGPUNode instantiates an n-GPU node of one part.
func NewGPUNode(spec GPUSpec, gpus int) (*GPUNode, error) { return gpusim.NewNode(spec, gpus) }

// TargetInfo is one device-registry entry: a part name, its hardware
// family ("tpu", "gpu"), its representative scale-out degree, and a
// factory from core count to Target.
type TargetInfo = icross.TargetInfo

// RegisteredTargets lists every registered device in registration
// order (TPU generations first, then GPU parts).
func RegisteredTargets() []TargetInfo { return icross.RegisteredTargets() }

// TargetByName instantiates a registered device at a core count —
// TargetByName("H100", 8) prices an 8-GPU NVSwitch node exactly like
// TargetByName("TPUv6e", 8) prices an 8-core pod.
func TargetByName(name string, cores int) (Target, error) { return icross.TargetByName(name, cores) }

// TargetNames renders the registered device names for error messages
// and CLI help.
func TargetNames() string { return icross.TargetNames() }

// ---- HE layer ----

// Context bundles the functional CKKS instance: parameters, keys,
// encoder, encryptor, decryptor and evaluator.
type Context struct {
	Params    *ckks.Parameters
	Encoder   *ckks.Encoder
	Encryptor *ckks.Encryptor
	Decryptor *ckks.Decryptor
	Evaluator *ckks.Evaluator

	sk *ckks.SecretKey
	kg *ckks.KeyGenerator
}

// Ciphertext is an encrypted slot vector.
type Ciphertext = ckks.Ciphertext

// Plaintext is an encoded slot vector.
type Plaintext = ckks.Plaintext

// LinearTransform is a BSGS-evaluated plaintext linear map over slots.
type LinearTransform = ckks.LinearTransform

// Evaluator executes CKKS operators (exposed for its full method set:
// Add, MulRelin, Rescale, Rotate, RotateHoisted, EvalPoly, InnerSum,
// EvalLinearTransform, ...).
type Evaluator = ckks.Evaluator

// InnerSumRotations lists the rotation keys Evaluator.InnerSum needs.
func InnerSumRotations(step, count int) []int { return ckks.InnerSumRotations(step, count) }

// ContextOptions configures NewContext.
type ContextOptions struct {
	LogN     int   // ring degree exponent (default 12)
	LogScale uint  // bits per prime / scale (default 28, the paper's)
	Limbs    int   // ciphertext modulus chain length (default 6)
	Dnum     int   // key-switching digits (default 3)
	Seed     int64 // PRNG seed (default 1)
	// Rotations lists the slot rotations to generate Galois keys for;
	// conjugation is always included when any rotation is requested.
	Rotations []int
}

func (o *ContextOptions) fill() {
	if o.LogN == 0 {
		o.LogN = 12
	}
	if o.LogScale == 0 {
		o.LogScale = 28
	}
	if o.Limbs == 0 {
		o.Limbs = 6
	}
	if o.Dnum == 0 {
		o.Dnum = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// NewContext creates a ready-to-use CKKS context with fresh keys.
func NewContext(opts ContextOptions) (*Context, error) {
	opts.fill()
	p, err := ckks.NewParameters(opts.LogN, opts.LogScale, opts.Limbs, opts.Dnum)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(p, opts.Seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)

	var gks map[uint64]*ckks.GaloisKey
	if len(opts.Rotations) > 0 {
		gks, err = kg.GenRotationKeys(sk, opts.Rotations)
		if err != nil {
			return nil, err
		}
		conj, err := kg.GenGaloisKey(sk, p.RingQP.GaloisElementForConjugation())
		if err != nil {
			return nil, err
		}
		gks[conj.GaloisEl] = conj
	}

	return &Context{
		Params:    p,
		Encoder:   ckks.NewEncoder(p),
		Encryptor: ckks.NewEncryptor(p, pk, opts.Seed+1),
		Decryptor: ckks.NewDecryptor(p, sk),
		Evaluator: ckks.NewEvaluator(p, rlk, gks),
		sk:        sk,
		kg:        kg,
	}, nil
}

// Slots returns the number of complex plaintext slots.
func (c *Context) Slots() int { return c.Params.Slots() }

// ErrNonFinite is the error EncryptValues and Encoder.Encode return
// for a slot value that is NaN or ±Inf, or that overflows once scaled.
var ErrNonFinite = ckks.ErrNonFinite

// EncryptValues encodes and encrypts a slot vector in one call.
func (c *Context) EncryptValues(values []complex128) (*Ciphertext, error) {
	pt, err := c.Encoder.Encode(values)
	if err != nil {
		return nil, err
	}
	return c.Encryptor.Encrypt(pt), nil
}

// DecryptValues decrypts and decodes a ciphertext in one call.
func (c *Context) DecryptValues(ct *Ciphertext) []complex128 {
	return c.Encoder.Decode(c.Decryptor.Decrypt(ct))
}

// MulRescale multiplies two ciphertexts, relinearises, and rescales.
func (c *Context) MulRescale(a, b *Ciphertext) (*Ciphertext, error) {
	prod, err := c.Evaluator.MulRelin(a, b)
	if err != nil {
		return nil, err
	}
	return c.Evaluator.Rescale(prod)
}

// ---- BAT / MAT building blocks (for downstream compiler users) ----

// ScalarPlan is the dense K×K BAT matrix of one pre-known scalar.
type ScalarPlan = bat.ScalarPlan

// MatMulPlan is the compiled BAT form of a ModMatMul with pre-known
// left operand.
type MatMulPlan = bat.MatMulPlan

// Modulus is a prime modulus with precomputed reduction constants.
type Modulus = modarith.Modulus

// NewModulus validates and precomputes a prime modulus.
func NewModulus(q uint64) (*Modulus, error) { return modarith.NewModulus(q) }

// CompileScalarBAT compiles a pre-known scalar into its dense BAT form
// (Alg. 2 DIRECTSCALARBAT).
func CompileScalarBAT(m *Modulus, a uint64) (*ScalarPlan, error) {
	return bat.DirectScalarBAT(m, a)
}

// CompileMatMulBAT compiles a pre-known H×V left matrix for BAT
// ModMatMul (Alg. 2 OFFLINECOMPILELEFT).
func CompileMatMulBAT(m *Modulus, a []uint64, h, v int) (*MatMulPlan, error) {
	return bat.OfflineCompileLeft(m, a, h, v)
}

// MatNTTPlan is the layout-invariant 3-step NTT (MAT, Fig. 10).
type MatNTTPlan = ring.MatNTTPlan

// Ring is the negacyclic polynomial ring substrate.
type Ring = ring.Ring

// NewRing constructs R_q = Z_q[x]/(x^N+1) over an NTT-friendly prime
// chain.
func NewRing(n int, primes []uint64) (*Ring, error) { return ring.NewRing(n, primes) }

// NTTFriendlyPrimes generates `count` primes of the given bit size with
// q ≡ 1 mod 2n.
func NTTFriendlyPrimes(bitSize uint, n uint64, count int) ([]uint64, error) {
	return modarith.GenerateNTTPrimes(bitSize, n, count)
}

// NewMatNTTPlan compiles the layout-invariant 3-step NTT for a ring and
// (R, C) split; order is LayoutDigitSwap (zero reordering) or
// LayoutBitRev (radix-2-compatible output).
func NewMatNTTPlan(r *Ring, rr, cc int, order ring.Layout) (*MatNTTPlan, error) {
	return ring.NewMatNTTPlan(r, rr, cc, order)
}

// NTT output layouts.
const (
	LayoutNatural   = ring.LayoutNatural
	LayoutBitRev    = ring.LayoutBitRev
	LayoutDigitSwap = ring.LayoutDigitSwap
)

// ---- Experiments layer ----

// Experiment is one regenerated table or figure.
type Experiment = harness.Report

// AllExperiments regenerates the paper's full evaluation section.
func AllExperiments() []Experiment { return harness.AllReports() }

// ExperimentByID regenerates one experiment ("Table V" … "Fig 14").
func ExperimentByID(id string) (Experiment, error) {
	r, ok := harness.ReportByID(id)
	if !ok {
		return Experiment{}, fmt.Errorf("cross: unknown experiment %q (have %v)", id, harness.IDs())
	}
	return r, nil
}

// ExperimentIDs lists the available experiment identifiers.
func ExperimentIDs() []string { return harness.IDs() }

// ---- Sweep / perf-gating layer ----

// GateResult is the classified old-vs-new comparison every baseline
// gate returns (SweepDiff, HostBenchDiffFiles, CalibDiff): regressions,
// improvements, warnings and coverage drift per (record ID, metric).
// Its HasRegressions is the gate condition.
type GateResult = gate.Result

// ErrDuplicateID is wrapped by the error a gate diff returns when its
// baseline or its new run repeats a record ID.
var ErrDuplicateID = gate.ErrDuplicateID

// SweepConfig selects the sweep axes (parameter sets, TPU specs, pod
// core counts, workloads) and the worker-pool width; the zero value is
// the full cross-product at NumCPU workers.
type SweepConfig = sweep.Config

// SweepRecord is one sweep data point: a workload lowered onto one pod
// configuration, with modeled latency, collective share, and kernel
// counts. Its JSON encoding is the stable schema BENCH_baseline.json
// and the CI perf gate diff on.
type SweepRecord = sweep.Record

// Sweep lowers the configured cross-product concurrently and returns
// deterministic, stably-ordered records — bit-identical at every
// parallelism (the parallel run is tested byte-equal to the serial
// one).
func Sweep(cfg SweepConfig) ([]SweepRecord, error) { return sweep.Run(cfg) }

// SweepDiff compares two sweeps record-by-record and classifies each
// latency change — total_s always, overlapped_s when both sides carry
// the column — against the fractional threshold (0.005 = 0.5%, the CI
// gate's default). The result's HasRegressions is the gate condition
// crossbench sweep -compare exits non-zero on.
func SweepDiff(old, new []SweepRecord, threshold float64) (GateResult, error) {
	return sweep.Diff(old, new, threshold)
}

// ---- Host (wall-clock) perf-gating layer ----

// HostBenchRecord is one host kernel measurement: real ns/op and
// steady-state allocs/op at a fixed size. Its JSON encoding is the
// stable schema BENCH_host.json and the hostbench CI gate diff on.
type HostBenchRecord = hostbench.Record

// HostBenchEnvironment captures the machine a host run was measured on
// (CPU model, GOMAXPROCS, Go version, …); mismatches against a
// baseline surface as diff warnings.
type HostBenchEnvironment = hostbench.Environment

// HostBenchFile is the BENCH_host.json schema: the measuring
// environment plus the records.
type HostBenchFile = hostbench.File

// HostBenchRunFile measures the host-side functional kernels (NTT/INTT,
// VecMod, automorphism, matrix NTT, BAT MatMul, BConv) at a fixed size
// and stamps the current environment — the content written to
// BENCH_host.json. Unlike Sweep, these are real wall-clock numbers for
// THIS machine: diff them only against a baseline recorded on
// comparable hardware.
func HostBenchRunFile() (HostBenchFile, error) { return hostbench.RunFile() }

// HostBenchDiffFiles compares two host benchmark files. Wall time is
// classified against the fractional threshold (generous — CI runners
// are noisy); allocs/op is gated strictly at zero drift; environment
// mismatches are warnings.
func HostBenchDiffFiles(old, new HostBenchFile, threshold float64) (GateResult, error) {
	return hostbench.DiffFiles(old, new, threshold)
}

// ---- Calibration / model-drift-gating layer ----

// CalibConfig controls a calibration run (host measurement sizes and
// repeats, fitter parallelism); the zero value is the default run.
type CalibConfig = calib.Config

// CalibRecord is one calibration point: a kernel's measured
// ground-truth latency against the model's prediction under default
// and fitted constants.
type CalibRecord = calib.Record

// CalibSpecFit is one spec's fitted constants with before/after model
// error.
type CalibSpecFit = calib.SpecFit

// CalibReport is the committable BENCH_calib.json content: every
// calibration record, every spec's fit, and the measuring environment.
type CalibReport = calib.Report

// Calib measures ground truth (host kernels timed here; published
// TPU/GPU figures from the paper), prices the same work through the
// roofline model, and least-squares fits each spec's free constants.
// Published-source content is deterministic; host records vary with
// the machine and are warning-gated only.
func Calib(cfg CalibConfig) (*CalibReport, error) { return calib.Run(cfg) }

// CalibDiff compares two calibration reports against the fractional
// drift threshold. Its HasRegressions is the calib-gate condition:
// published-record model-error growth or published-spec constant
// drift fails; host drift and environment mismatches only warn.
func CalibDiff(old, new *CalibReport, threshold float64) (GateResult, error) {
	return calib.Diff(old, new, threshold)
}

// CalibKernels lists the kernel names Compiler.PredictKernel prices —
// the model-side vocabulary matching the host benchmark suite.
func CalibKernels() []string { return icross.CalibKernels() }

// ---- Serving-simulator layer ----

// ServeConfig selects one serving scenario: TPU generation, parameter
// set, fleet size, dispatch policy, offered rate, batching limits, and
// workload mix. The zero value resolves to a 4-pod TPUv6e fleet under
// Set B at 70% of capacity.
type ServeConfig = serve.Config

// ServeResult is one serving run's record: the resolved config plus
// capacity, achieved throughput, pod utilization, queue depths, and
// p50/p95/p99 latency. Its JSON encoding is the stable schema of
// DESIGN.md §12, bit-identical across runs for a fixed seed.
type ServeResult = serve.Result

// ServeMixEntry is one workload class and its share of the arrival
// stream.
type ServeMixEntry = serve.MixEntry

// ServeFleetGroup is one homogeneous slice of a heterogeneous fleet:
// a device, its per-pod core count, how many pods, and an hourly
// price (0 resolves to the built-in per-device default).
// ServeConfig.Fleet lists the groups; pods are numbered in
// declaration order.
type ServeFleetGroup = serve.FleetGroup

// ServeSLOClass is one service class: a name referenced from
// ServeMixEntry.Class, a strict (non-preemptive) priority, an
// optional per-class deadline, and an optional fleet-wide admission
// limit on queued requests of the class.
type ServeSLOClass = serve.SLOClass

// ServeTraceEvent is one recorded arrival for trace-replay mode:
// an absolute arrival time and a workload name.
type ServeTraceEvent = serve.TraceEvent

// ServeClassStats is the per-SLO-class section of a serve record.
type ServeClassStats = serve.ClassStats

// ServeCostStats is the fleet-economics section of a serve record:
// hourly price, requests/sec per dollar/hour, and dollars per million
// requests at the achieved rate.
type ServeCostStats = serve.CostStats

// ServeLoadTrace reads an arrival trace for ServeConfig.TraceEvents
// from a JSON array of {"t","workload"} objects or a "t,workload" CSV
// (header and #-comment lines are skipped).
func ServeLoadTrace(path string) ([]ServeTraceEvent, error) { return serve.LoadTrace(path) }

// ServeParseFleet parses a fleet spec "device:cores:count[:dollar]"
// with groups joined by "+", e.g. "TPUv6e:1:4+H100:8:2:64".
func ServeParseFleet(s string) ([]ServeFleetGroup, error) { return serve.ParseFleet(s) }

// ServeParseFleets parses a comma-separated list of fleet specs (see
// ServeParseFleet) into candidate fleets for ServePlan.
func ServeParseFleets(s string) ([][]ServeFleetGroup, error) { return serve.ParseFleets(s) }

// Dispatch policies for ServeConfig.Policy.
const (
	ServeRoundRobin  = serve.PolicyRoundRobin
	ServeLeastLoaded = serve.PolicyLeastLoaded
	ServeJSQ         = serve.PolicyJSQ
	ServeCheapest    = serve.PolicyCheapest
)

// Latency-statistics modes for ServeConfig.Stats.
const (
	ServeStatsStored    = serve.StatsStored
	ServeStatsStreaming = serve.StatsStreaming
)

// Serve executes one serving scenario of the discrete-event simulator
// to completion: every request offered within the horizon is served,
// so overload shows up as makespan and tail latency, not loss (under
// faults, also as shed, timed-out, and failed requests). The result is
// a pure function of the config (see internal/serve's determinism
// contract).
func Serve(cfg ServeConfig) (*ServeResult, error) { return serve.Run(cfg) }

// ErrArrivalOrder is the error Serve, ServeChaos and ServePlan return
// when ServeConfig.Source yields a NaN or decreasing arrival time.
var ErrArrivalOrder = serve.ErrArrivalOrder

// ErrArrivalClass is the error Serve, ServeChaos and ServePlan return
// when ServeConfig.Source yields a class index outside the mix.
var ErrArrivalClass = serve.ErrArrivalClass

// ErrRequestCap is the error Serve, ServeChaos and ServePlan return
// when a scenario offers more requests than its stats mode may hold
// (including a ServeConfig.Source that never ends).
var ErrRequestCap = serve.ErrRequestCap

// FaultConfig selects the deterministic fault-and-recovery scenario
// for ServeConfig.Faults: pod crash/recover (exponential MTBF/MTTR),
// transient stragglers, batch-level transient errors, plus the
// client-side recovery knobs — deadlines, capped-backoff retries,
// hedged dispatch, and queue-depth admission control. The zero value
// disables everything and leaves the serve record byte-identical to a
// fault-free run.
type FaultConfig = faults.Config

// ServeAvailability is the availability section a fault-configured
// serve run adds to its record: goodput, shed/timed-out/failed counts,
// retry and hedge activity, per-pod downtime, and latency conditioned
// on completing within deadline.
type ServeAvailability = serve.AvailabilityStats

// ServeChaosConfig sweeps one serving scenario across a grid of crash
// MTBFs, holding every other fault knob fixed.
type ServeChaosConfig = serve.ChaosConfig

// ServeChaosPoint is one chaos grid cell's availability summary.
type ServeChaosPoint = serve.ChaosPoint

// ServeChaosResult is the stable record of a chaos sweep,
// healthiest-first.
type ServeChaosResult = serve.ChaosResult

// ServeChaos runs the MTBF grid: the fleet is priced once, then one
// deterministic serve run per cell measures how goodput and the
// in-deadline tail degrade as crashes become more frequent.
func ServeChaos(cc ServeChaosConfig) (*ServeChaosResult, error) { return serve.Chaos(cc) }

// ServePlanConfig is one capacity-planning question: a base serving
// scenario, a set of candidate fleets (empty = a 1/2/4/8-pod ladder of
// the base device), and a target p99 in seconds.
type ServePlanConfig = serve.PlanConfig

// ServePlanPoint is one candidate fleet's operating point: the highest
// offered rate whose delivered p99 meets the target, and what a
// request costs there.
type ServePlanPoint = serve.PlanPoint

// ServePlanResult is the capacity-planning frontier, best
// requests/sec/dollar first (infeasible candidates last).
type ServePlanResult = serve.PlanResult

// ServePlan answers "requests/sec/dollar at p99 ≤ X" for each
// candidate fleet by deterministically bisecting the offered rate and
// running the full simulator at every probe.
func ServePlan(pc ServePlanConfig) (*ServePlanResult, error) { return serve.Plan(pc) }

// EstimateMNIST estimates the §V-D MNIST CNN latency on a compiler.
func EstimateMNIST(c *Compiler) (total, perImage float64) {
	return workload.EstimateMNIST(c)
}

// EstimateHELR estimates one §V-D logistic-regression iteration.
func EstimateHELR(c *Compiler) float64 { return workload.EstimateHELR(c) }

// MNISTProgram composes the §V-D CNN schedule into a Program (one
// image; chain .Batch(64) for the paper's evaluation batch).
func MNISTProgram(c *Compiler) *Program { return workload.MNISTProgram(c) }

// HELRProgram composes one §V-D logistic-regression training iteration
// into a Program.
func HELRProgram(c *Compiler) *Program { return workload.HELRProgram(c) }

// MNISTParams returns the paper's MNIST HE configuration.
func MNISTParams() Params { return workload.MNISTParams() }
