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
// One timing harness, Measure, serves both the gate and the
// calibration harness (internal/calib): each kernel runs in batches
// that fill a 2 ms window, DefaultRepeats times. For the gate a
// reference kernel is timed around every batch and the batch is scaled
// to a nominal host by it (hostref.go), so a record's ns/op is the best
// scaled batch and reads the same on a faster, slower or contended
// host; its allocs/op is counted over all of them. Two gate policies
// with different strictness (DiffFiles):
//
//   - scaled ns/op is compared against a generous fractional threshold
//     (default 25%) because shared CI runners are noisy;
//   - allocs/op is gated at exact zero drift: allocation counts are
//     deterministic, so any increase is a real regression of the
//     allocation-free discipline.
package hostbench

import (
	"fmt"
	"math/rand"

	"cross/internal/bat"
	"cross/internal/gate"
	"cross/internal/modarith"
	"cross/internal/ring"
	"cross/internal/rns"
)

// Record is one kernel's measurement at its fixed benchmark size;
// NsPerOp is scaled to the nominal host by the reference kernel.
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
// (base/size), and a closure running exactly one operation.
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

	// BConv step 1+2 through the converter's own Step 1 matrix (ModUp shape L=2→2).
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

// Gated metrics.
const (
	metricNs     = "ns_per_op"
	metricAllocs = "allocs_per_op"
)

// DiffFiles compares two host runs record by record (matched on ID):
// ns/op under gate's relative policy at the fractional threshold, and
// allocs/op under the strict policy — allocation counts carry no
// noise, so any increase is a regression at any ns threshold.
// Environment mismatches become warnings, never failures: measuring on
// different CI hardware is expected.
func DiffFiles(old, new File, threshold float64) (gate.Result, error) {
	metrics := []gate.Metric{
		{Name: metricNs, Unit: "ns", Policy: gate.Policy{Kind: gate.Relative, Threshold: threshold}},
		{Name: metricAllocs, Policy: gate.Policy{Kind: gate.Strict}},
	}
	res, err := gate.Diff("hostbench", metrics, gateRecords(old.Records), gateRecords(new.Records))
	if err != nil {
		return gate.Result{}, err
	}
	res.EnvWarnings = old.Env.Mismatches(new.Env)
	return res, nil
}

func gateRecords(recs []Record) []gate.Record {
	out := make([]gate.Record, len(recs))
	for i, r := range recs {
		out[i] = gate.Record{ID: r.ID, Values: map[string]float64{metricNs: r.NsPerOp, metricAllocs: r.AllocsPerOp}}
	}
	return out
}
