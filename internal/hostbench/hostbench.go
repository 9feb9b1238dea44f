// Package hostbench measures the real wall-clock cost (ns/op) and
// steady-state allocation count (allocs/op) of the host-side functional
// kernels — the reproduction's "CPU platform" numbers that
// bench_test.go reports per paper table. Where the sweep engine gates
// the *simulated* TPU latencies (BENCH_baseline.json), hostbench gates
// the *measured* CPU ones (BENCH_host.json): `crossbench hostbench
// -compare BENCH_host.json` reruns every kernel at a fixed size and
// fails on regression, so a PR claiming a speedup has to carry the
// numbers that prove it.
//
// Two gates with different strictness:
//
//   - ns/op is compared against a generous fractional threshold
//     (default 25%) because shared CI runners are noisy;
//   - allocs/op is gated at exact zero drift: allocation counts are
//     deterministic, so any increase is a real regression of the
//     allocation-free discipline.
package hostbench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cross/internal/bat"
	"cross/internal/modarith"
	"cross/internal/ring"
	"cross/internal/rns"
	"cross/internal/sweep"
)

// Record is one kernel's measurement at its fixed benchmark size.
type Record struct {
	ID          string  `json:"id"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchN is the polynomial degree every ring kernel is measured at
// (2^13, the paper's mid-size degree — large enough to be
// steady-state, small enough for a quick CI gate).
const benchN = 1 << 13

// kernel is one benchmarkable host kernel: a base name (the calibration
// vocabulary shared with cross.CalibKernels), a full hostbench ID
// (base/size), and a closure running exactly one operation. The same
// set backs both Run (testing.Benchmark, allocation counting) and
// Measure (raw timing samples for the calibration harness).
type kernel struct {
	base string
	id   string
	op   func() error
}

// buildKernels constructs the gated kernel set at polynomial degree n
// (a power of two ≥ 256 so the MAT split 128×(n/128) is valid). The
// size-independent BAT matmul is included only when withBAT is set, so
// multi-size sweeps measure it once.
func buildKernels(n int, withBAT bool) ([]kernel, error) {
	if n < 256 || n&(n-1) != 0 {
		return nil, fmt.Errorf("hostbench: degree %d is not a power of two ≥ 256", n)
	}
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 2)
	if err != nil {
		return nil, err
	}
	rg, err := ring.NewRing(n, primes)
	if err != nil {
		return nil, err
	}
	m := rg.Moduli[0]
	rng := rand.New(rand.NewSource(7))
	a := make([]uint64, n)
	c := make([]uint64, n)
	for i := range a {
		a[i], c[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q
	}
	dst := make([]uint64, n)

	var ks []kernel
	add := func(base, size string, op func() error) {
		ks = append(ks, kernel{base: base, id: base + "/" + size, op: op})
	}
	sizeN := fmt.Sprintf("N%d", n)

	buf := append([]uint64(nil), a...)
	add("ntt_inplace", sizeN, func() error { rg.NTTInPlace(0, buf); return nil })
	add("intt_inplace", sizeN, func() error { rg.INTTInPlace(0, buf); return nil })
	ws := m.ShoupPrecomputeVec(c)
	add("vecmulmod_shoup", sizeN, func() error { m.VecMulModShoup(dst, a, c, ws); return nil })
	add("vecmulmod_barrett", sizeN, func() error { m.VecMulMod(dst, a, c, modarith.Barrett); return nil })
	add("vecaddmod", sizeN, func() error { m.VecAddMod(dst, a, c); return nil })

	idx, err := rg.AutomorphismNTTIndex(5)
	if err != nil {
		return nil, err
	}
	autoIn := ring.NewPoly(1, n)
	copy(autoIn.Coeffs[0], a)
	autoOut := ring.NewPoly(1, n)
	add("automorphism_ntt", sizeN, func() error { rg.AutomorphismNTT(autoIn, autoOut, idx); return nil })

	plan, err := ring.NewMatNTTPlan(rg, 128, n/128, ring.LayoutBitRev)
	if err != nil {
		return nil, err
	}
	matOut := make([]uint64, n)
	add("matntt_forward", sizeN, func() error { plan.ForwardLimb(0, a, matOut); return nil })

	if withBAT {
		// BAT ModMatMul at the reduced functional size of BenchmarkTableV.
		bm := modarith.MustModulus(268369921)
		ba := make([]uint64, 64*64)
		bx := make([]uint64, 64*64)
		for i := range ba {
			ba[i], bx[i] = rng.Uint64()%bm.Q, rng.Uint64()%bm.Q
		}
		bplan, err := bat.OfflineCompileLeft(bm, ba, 64, 64)
		if err != nil {
			return nil, err
		}
		bdst := make([]uint64, 64*64)
		add("bat_matmul", "64x64x64", func() error { return bplan.MulInto(bdst, bx, 64, 1) })
	}

	// BConv step 1+2 through the pooled converter (ModUp shape L=2→2).
	convPrimes, err := modarith.GenerateNTTPrimes(29, uint64(n), 4)
	if err != nil {
		return nil, err
	}
	from, err := rns.NewBasis(convPrimes[:2])
	if err != nil {
		return nil, err
	}
	to, err := rns.NewBasis(convPrimes[2:])
	if err != nil {
		return nil, err
	}
	conv, err := rns.NewConverter(from, to)
	if err != nil {
		return nil, err
	}
	convIn := rns.AllocLimbs(2, n)
	for i := range convIn {
		for k := range convIn[i] {
			convIn[i][k] = rng.Uint64() % convPrimes[i]
		}
	}
	convOut := rns.AllocLimbs(2, n)
	add("bconv_approx", "L2_to_2/"+sizeN, func() error { conv.ConvertApproxInto(convOut, convIn); return nil })

	return ks, nil
}

// Run measures every gated kernel and returns the records in a stable
// order (the committable BENCH_host.json record content).
func Run() ([]Record, error) {
	ks, err := buildKernels(benchN, true)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, 0, len(ks))
	for _, k := range ks {
		op := k.op
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		recs = append(recs, Record{
			ID:          k.id,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.AllocsPerOp()),
		})
	}
	return recs, nil
}

// Delta is one kernel's old-vs-new comparison.
type Delta struct {
	ID        string  `json:"id"`
	OldNs     float64 `json:"old_ns"`
	NewNs     float64 `json:"new_ns"`
	RelNs     float64 `json:"rel_ns"` // NewNs/OldNs − 1
	OldAllocs float64 `json:"old_allocs"`
	NewAllocs float64 `json:"new_allocs"`
	Class     string  `json:"class"`
}

// Delta classes (shared vocabulary with sweep.Diff).
const (
	ClassRegression  = "regression"
	ClassImprovement = "improvement"
	ClassUnchanged   = "unchanged"
)

// DiffResult is the classified comparison of two host benchmark runs.
type DiffResult struct {
	Threshold    float64 `json:"threshold"`
	Regressions  []Delta `json:"regressions"`
	Improvements []Delta `json:"improvements"`
	Unchanged    int     `json:"unchanged"`

	OnlyInOld []string `json:"only_in_old,omitempty"`
	OnlyInNew []string `json:"only_in_new,omitempty"`

	// EnvWarnings describe baseline-vs-current environment mismatches
	// (DiffFiles). Warnings only — different CI hardware explains noisy
	// timings but must not hard-fail the gate.
	EnvWarnings []string `json:"env_warnings,omitempty"`
}

// HasRegressions reports whether any kernel regressed — in wall time
// beyond the threshold, or in allocations at all.
func (d DiffResult) HasRegressions() bool { return len(d.Regressions) > 0 }

// Summary renders a human-readable gate report.
func (d DiffResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostbench diff @ ns threshold %.0f%% (allocs strict): %d regression(s), %d improvement(s), %d unchanged\n",
		d.Threshold*100, len(d.Regressions), len(d.Improvements), d.Unchanged)
	for _, r := range d.Regressions {
		fmt.Fprintf(&b, "  REGRESSION  %-28s %.0f ns → %.0f ns (%+.1f%%), %g → %g allocs\n",
			r.ID, r.OldNs, r.NewNs, r.RelNs*100, r.OldAllocs, r.NewAllocs)
	}
	for _, r := range d.Improvements {
		fmt.Fprintf(&b, "  improvement %-28s %.0f ns → %.0f ns (%+.1f%%)\n", r.ID, r.OldNs, r.NewNs, r.RelNs*100)
	}
	if len(d.OnlyInOld) > 0 {
		fmt.Fprintf(&b, "  only in baseline: %v\n", d.OnlyInOld)
	}
	if len(d.OnlyInNew) > 0 {
		fmt.Fprintf(&b, "  only in new run: %v\n", d.OnlyInNew)
	}
	for _, w := range d.EnvWarnings {
		fmt.Fprintf(&b, "  WARNING environment mismatch — %s\n", w)
	}
	return b.String()
}

// Diff compares two host benchmark runs record-by-record (matched on
// ID). Wall time is classified against the fractional threshold;
// allocs/op is gated strictly — ANY increase is a regression
// regardless of timing, because allocation counts carry no noise.
// Records appearing in only one run are reported, not classified.
func Diff(old, new []Record, threshold float64) DiffResult {
	if threshold < 0 {
		threshold = 0
	}
	d := DiffResult{Threshold: threshold}
	oldByID := make(map[string]Record, len(old))
	for _, r := range old {
		oldByID[r.ID] = r
	}
	seen := make(map[string]bool, len(new))
	for _, r := range new {
		seen[r.ID] = true
		o, ok := oldByID[r.ID]
		if !ok {
			d.OnlyInNew = append(d.OnlyInNew, r.ID)
			continue
		}
		delta := Delta{
			ID: r.ID, OldNs: o.NsPerOp, NewNs: r.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: r.AllocsPerOp,
		}
		// Wall time classifies through the same semantics as the sweep
		// gate — in particular a non-positive baseline ns/op with any
		// different new latency is a regression, never unchanged (a
		// hollowed-out BENCH_host.json must not pass silently).
		relNs, nsClass := sweep.Classify(o.NsPerOp, r.NsPerOp, threshold)
		delta.RelNs = relNs
		if r.AllocsPerOp > o.AllocsPerOp {
			delta.Class = ClassRegression
		} else {
			delta.Class = nsClass
		}
		switch delta.Class {
		case ClassRegression:
			d.Regressions = append(d.Regressions, delta)
		case ClassImprovement:
			d.Improvements = append(d.Improvements, delta)
		default:
			d.Unchanged++
		}
	}
	for _, r := range old {
		if !seen[r.ID] {
			d.OnlyInOld = append(d.OnlyInOld, r.ID)
		}
	}
	return d
}
