package cross

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"cross/internal/tpusim"
)

// errNilTarget rejects Compile(nil, …) and nil/empty pods.
var errNilTarget = errors.New("cross: lowering needs a target with at least one core")

// KernelCounts tallies the kernel invocations of one lowering — the
// Schedule IR's op-count face. Counts are launches, not elements: one
// batched NTT of 64 limbs is one NTT entry. The JSON names are part of
// the sweep-record schema (DESIGN.md §9) that BENCH_baseline.json and
// the CI perf gate diff on — rename with care.
type KernelCounts struct {
	NTTs        int `json:"ntts"`        // batched MAT NTT launches
	INTTs       int `json:"intts"`       // batched MAT INTT launches
	BConvs      int `json:"bconvs"`      // basis conversions (step 1 + step 2)
	MatMuls     int `json:"matmuls"`     // standalone ModMatMul lowerings (Tab. V ablations)
	VecMuls     int `json:"vecmuls"`     // element-wise modular multiplication launches
	VecAdds     int `json:"vecadds"`     // element-wise modular addition launches
	Gathers     int `json:"gathers"`     // automorphism gathers (the permutation MAT cannot embed)
	Collectives int `json:"collectives"` // inter-core collectives (all-gather/all-reduce/broadcast)
}

// Total returns the overall kernel-launch count.
func (k KernelCounts) Total() int {
	return k.NTTs + k.INTTs + k.BConvs + k.MatMuls + k.VecMuls + k.VecAdds + k.Gathers + k.Collectives
}

// plus returns the element-wise sum.
func (k KernelCounts) plus(o KernelCounts) KernelCounts {
	return KernelCounts{
		NTTs:        k.NTTs + o.NTTs,
		INTTs:       k.INTTs + o.INTTs,
		BConvs:      k.BConvs + o.BConvs,
		MatMuls:     k.MatMuls + o.MatMuls,
		VecMuls:     k.VecMuls + o.VecMuls,
		VecAdds:     k.VecAdds + o.VecAdds,
		Gathers:     k.Gathers + o.Gathers,
		Collectives: k.Collectives + o.Collectives,
	}
}

// times returns the counts scaled by n.
func (k KernelCounts) times(n int) KernelCounts {
	return KernelCounts{
		NTTs:        k.NTTs * n,
		INTTs:       k.INTTs * n,
		BConvs:      k.BConvs * n,
		MatMuls:     k.MatMuls * n,
		VecMuls:     k.VecMuls * n,
		VecAdds:     k.VecAdds * n,
		Gathers:     k.Gathers * n,
		Collectives: k.Collectives * n,
	}
}

// String renders the non-zero counts.
func (k KernelCounts) String() string {
	var parts []string
	add := func(name string, v int) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("ntt", k.NTTs)
	add("intt", k.INTTs)
	add("bconv", k.BConvs)
	add("matmul", k.MatMuls)
	add("vecmul", k.VecMuls)
	add("vecadd", k.VecAdds)
	add("gather", k.Gathers)
	add("collective", k.Collectives)
	if len(parts) == 0 {
		return "(no kernels)"
	}
	return strings.Join(parts, " ")
}

// Schedule is the compiler's lowering artifact: one HE operator (or a
// whole Program) lowered onto a Target, carrying the end-to-end
// latency, the per-category compute breakdown, kernel-invocation
// counts, and the shard/collective metadata of the lowering. It is the
// only priced form of an operator: downstream consumers (harness
// reports, workload estimators, cmd tools, serving-scale batching)
// compose Schedules without re-deriving anything.
type Schedule struct {
	Op     string // operator name ("HE-Mult", "Program[…]", …)
	Target string // target name ("TPUv6e", "TPUv6e-4")
	Cores  int    // cores the lowering sharded across
	Params Params // parameter set the schedule was lowered under

	// Total is the end-to-end simulated latency in seconds: the
	// representative core's compute time plus all collective time (the
	// SPMD critical path — cores synchronise at every collective).
	Total float64

	// Collective is the interconnect (ICI or NVLink) share of Total;
	// zero on single-core targets.
	Collective float64

	// Overlapped is the end-to-end latency under the overlap-aware
	// execution model (DESIGN.md §13): the makespan of the lowering's
	// segment DAG, where HBM streaming double-buffers behind compute
	// and ICI collectives run asynchronously on the link. Always in
	// (0, Total] for a non-empty lowering; Total stays the serial
	// (paper-faithful §V-E) model.
	Overlapped float64

	// DAGNodes and DAGEdges summarise the segment DAG Overlapped was
	// executed from. The graph itself is not retained (schedules are
	// cached process-wide); program-level schedules sum their ops'.
	DAGNodes int
	DAGEdges int

	// Trace is the per-category breakdown (Fig. 12's legend), with the
	// collective share under the target's interconnect category
	// (tpusim.CatICI or tpusim.CatNVLink).
	Trace *tpusim.Trace

	// Kernels counts the kernel launches of the lowering.
	Kernels KernelCounts
}

// Compute returns the core-compute share of Total (Total − Collective).
func (s *Schedule) Compute() float64 { return s.Total - s.Collective }

// OverlapFraction reports the share of the serial latency hidden by
// overlap: (Total − Overlapped) / Total, clamped to
// [0, 1]; zero for an empty schedule.
func (s *Schedule) OverlapFraction() float64 {
	if s.Total <= 0 {
		return 0
	}
	f := (s.Total - s.Overlapped) / s.Total
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// PricedTotal selects the latency downstream consumers charge for:
// Overlapped when overlap is set, the serial Total otherwise. This is
// the single switch sweep/serve/harness/crossbench price through.
func (s *Schedule) PricedTotal(overlap bool) float64 {
	if overlap {
		return s.Overlapped
	}
	return s.Total
}

// Seconds returns the time charged to one trace category.
func (s *Schedule) Seconds(category string) float64 { return s.Trace.Seconds(category) }

// Breakdown renders the Fig. 12-style percentage breakdown.
func (s *Schedule) Breakdown() string { return s.Trace.Breakdown() }

// String renders a one-schedule summary.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s (%d core", s.Op, s.Target, s.Cores)
	if s.Cores != 1 {
		b.WriteString("s")
	}
	fmt.Fprintf(&b, "): %.2f µs", s.Total*1e6)
	if s.Collective > 0 {
		fmt.Fprintf(&b, " (%.2f µs collective)", s.Collective*1e6)
	}
	if f := s.OverlapFraction(); f > 0 {
		fmt.Fprintf(&b, " — overlapped %.2f µs (%.1f%% hidden)", s.Overlapped*1e6, 100*f)
	}
	fmt.Fprintf(&b, "\nkernels: %s\n%s", s.Kernels, s.Breakdown())
	return b.String()
}

// lowerOp lowers an arbitrary costing closure into a Schedule: the
// closure runs against fresh compute and collective traces (the live
// traces are untouched) and the elapsed time, breakdown, and kernel
// counts are captured. The charge stream is simultaneously recorded as
// a segment DAG (dag.go) and executed by the discrete-event engine
// (engine.go) to produce the overlapped latency; Total remains the
// plain serial sum. Every exported Lower* method is a named wrapper
// around it.
func (c *Compiler) lowerOp(op string, f func() float64) *Schedule {
	// One lowering at a time per compiler: the trace swap and tally
	// reset below are compiler-global state. Cost closures never call
	// lowerOp back (they compose cost* methods only), so the lock is
	// not reentered.
	c.mu.Lock()
	defer c.mu.Unlock()

	// Both fresh traces feed one DAG builder, so compute charges and
	// collective charges interleave in true issue order — lowerOp holds
	// the compiler lock, so the stream is single-goroutine.
	b := newDAGBuilder()

	savedCompute := c.Dev.Trace
	c.Dev.Trace = tpusim.NewTrace()
	c.Dev.Trace.Observe(b.segment)
	savedCollective := c.T.CollectiveTrace()
	collective := tpusim.NewTrace()
	collective.Observe(b.segment)
	c.T.SetCollectiveTrace(collective)
	savedTally := c.tally
	c.tally = KernelCounts{}
	// Restore under defer so a panicking closure cannot leave the
	// compiler charging the throwaway traces.
	defer func() {
		c.Dev.Trace = savedCompute
		c.T.SetCollectiveTrace(savedCollective)
		c.tally = savedTally
	}()

	total := f()

	// Detach the observers before the roll-up Adds below: the summary
	// collective charges are bookkeeping, not new segments.
	c.Dev.Trace.Observe(nil)
	collective.Observe(nil)

	s := &Schedule{
		Op:      op,
		Target:  c.T.Name(),
		Cores:   c.T.NumCores(),
		Params:  c.P,
		Total:   total,
		Trace:   c.Dev.Trace,
		Kernels: c.tally,
	}
	// Roll the collective breakdown into the schedule trace per
	// category, in first-charge order, so multi-fabric vocabularies
	// (CatICI on pods, CatNVLink on GPU nodes) survive the roll-up.
	// Zero-second categories are skipped: a 1-core pod charges CatICI
	// at 0 s, and adding it would perturb category order baselines.
	ct := c.T.CollectiveTrace()
	s.Collective = ct.Total()
	for _, cat := range ct.Categories() {
		if sec := ct.Seconds(cat); sec > 0 {
			s.Trace.Add(cat, sec)
		}
	}

	if math.IsNaN(total) || total < 0 {
		panic("cross: cost function returned invalid time")
	}

	overlapped, err := b.d.Execute()
	if err != nil {
		// The builder only ever emits back-edges, so a cycle here is a
		// builder bug, not a data condition.
		panic("cross: lowering produced an unexecutable segment DAG: " + err.Error())
	}
	// The makespan sums segment durations along paths in a different
	// association order than the closure's running total, so it can
	// exceed Total by a few ulps on overlap-free DAGs; clamp so
	// Overlapped ≤ Total holds exactly.
	if overlapped > total {
		overlapped = total
	}
	s.Overlapped = overlapped
	s.DAGNodes = len(b.d.Nodes)
	s.DAGEdges = b.d.Edges()
	return s
}

// --- HE operator schedules (Tab. VIII) ---

// LowerHEAdd lowers a ciphertext addition.
func (c *Compiler) LowerHEAdd() *Schedule { return c.lowerOp("HE-Add", c.costHEAdd) }

// LowerHEMult lowers a full ciphertext multiplication (tensor product,
// relinearisation, rescale).
func (c *Compiler) LowerHEMult() *Schedule { return c.lowerOp("HE-Mult", c.costHEMult) }

// LowerRescale lowers one rescaling.
func (c *Compiler) LowerRescale() *Schedule { return c.lowerOp("Rescale", c.costRescale) }

// LowerRotate lowers a slot rotation (automorphism + key switch).
func (c *Compiler) LowerRotate() *Schedule { return c.lowerOp("Rotate", c.costRotate) }

// LowerConjugate lowers the conjugation rotation.
func (c *Compiler) LowerConjugate() *Schedule { return c.lowerOp("Conjugate", c.costRotate) }

// LowerKeySwitch lowers one hybrid key switch.
func (c *Compiler) LowerKeySwitch() *Schedule { return c.lowerOp("KeySwitch", c.costKeySwitch) }

// LowerPtMul lowers a plaintext-ciphertext multiplication.
func (c *Compiler) LowerPtMul() *Schedule { return c.lowerOp("PtMul", c.costPtMul) }

// LowerPtAdd lowers a plaintext-ciphertext addition.
func (c *Compiler) LowerPtAdd() *Schedule { return c.lowerOp("PtAdd", c.costPtAdd) }

// --- kernel schedules ---

// LowerNTT lowers a batch of MAT NTTs, limb-sharded across the target.
func (c *Compiler) LowerNTT(batch int) *Schedule {
	return c.lowerOp(fmt.Sprintf("NTT×%d", batch), func() float64 { return c.costNTTMat(batch) })
}

// LowerINTT lowers a batch of inverse transforms.
func (c *Compiler) LowerINTT(batch int) *Schedule {
	return c.lowerOp(fmt.Sprintf("INTT×%d", batch), func() float64 { return c.costINTTMat(batch) })
}

// LowerBConv lowers a basis conversion of an N-coefficient polynomial
// from l to lOut limbs.
func (c *Compiler) LowerBConv(n, l, lOut int, useBAT bool) *Schedule {
	return c.lowerOp(fmt.Sprintf("BConv %d→%d", l, lOut),
		func() float64 { return c.costBConv(n, l, lOut, useBAT) })
}

// LowerVecModMul lowers an n-element modular multiplication under the
// configured reduction algorithm (the Fig. 13a ablation kernel).
func (c *Compiler) LowerVecModMul(n int) *Schedule {
	return c.lowerOp(fmt.Sprintf("VecModMul×%d", n), func() float64 { return c.costVecModMul(n) })
}

// LowerMatModMul lowers an (h, v, w) modular matmul with a pre-known
// left operand, through BAT or the sparse Toeplitz baseline (Tab. V).
// Single-core analysis kernel: it charges the representative core.
func (c *Compiler) LowerMatModMul(h, v, w int, useBAT bool) *Schedule {
	if useBAT {
		return c.lowerOp("ModMatMul-BAT", func() float64 { return c.costMatModMulBAT(h, v, w) })
	}
	return c.lowerOp("ModMatMul-baseline", func() float64 { return c.costMatModMulBaseline(h, v, w) })
}

// LowerNTTRadix2 lowers a batch of radix-2 Cooley–Tukey NTTs on one
// core (the Tab. X baseline).
func (c *Compiler) LowerNTTRadix2(batch int) *Schedule {
	return c.lowerOp(fmt.Sprintf("NTT-radix2×%d", batch), func() float64 { return c.costNTTRadix2(batch) })
}

// LowerNTT4Step lowers a batch of GPU-style 4-step NTTs on one core
// (MAT plus the explicit transpose and bit-reverse it eliminates).
func (c *Compiler) LowerNTT4Step(batch int) *Schedule {
	return c.lowerOp(fmt.Sprintf("NTT-4step×%d", batch), func() float64 { return c.costNTT4Step(batch) })
}

// LowerAutomorphism lowers τ_t on `limbs` polynomial limbs.
func (c *Compiler) LowerAutomorphism(limbs int) *Schedule {
	return c.lowerOp("Automorphism", func() float64 { return c.costAutomorphism(limbs) })
}

// --- composite schedules ---

// LowerBootstrap lowers one packed bootstrapping.
func (c *Compiler) LowerBootstrap(s BootstrapSchedule) *Schedule {
	return c.lowerOp("Bootstrap", func() float64 { return c.costBootstrap(s) })
}

// LowerBootstrapHoisted lowers the packed bootstrapping with hoisted
// BSGS rotation groups of the given size.
func (c *Compiler) LowerBootstrapHoisted(s BootstrapSchedule, groupSize int) *Schedule {
	return c.lowerOp("Bootstrap(hoisted)", func() float64 { return c.costBootstrapHoisted(s, groupSize) })
}

// LowerRotateHoisted lowers `count` rotations of one ciphertext with a
// shared decomposition.
func (c *Compiler) LowerRotateHoisted(count int) *Schedule {
	return c.lowerOp(fmt.Sprintf("Rotate(hoisted)×%d", count),
		func() float64 { return c.costRotateHoisted(count) })
}
