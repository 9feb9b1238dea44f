package cross

import (
	"testing"

	"cross/internal/modarith"
	"cross/internal/tpusim"
)

func v6eCompiler(t testing.TB, p Params) *Compiler {
	t.Helper()
	c, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsValidate(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D"} {
		p, err := NamedSet(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("set %s invalid: %v", name, err)
		}
		if p.K() != 4 {
			t.Errorf("set %s: K = %d want 4 for 28-bit moduli", name, p.K())
		}
	}
	if _, err := NamedSet("Z"); err == nil {
		t.Error("expected error for unknown set")
	}
	bad := SetA()
	bad.R = 3
	if err := bad.Validate(); err == nil {
		t.Error("expected error for non-power-of-two split")
	}
	bad = SetA()
	bad.Dnum = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for dnum 0")
	}
	bad = SetA()
	bad.LogQ = 40
	if err := bad.Validate(); err == nil {
		t.Error("expected error for LogQ > 32")
	}
}

func TestParamsDerived(t *testing.T) {
	d := SetD()
	if d.N() != 1<<16 || d.L != 51 || d.Dnum != 3 {
		t.Fatal("Set D constants drifted from Tab. IV")
	}
	if d.Alpha() != 17 {
		t.Fatalf("Set D alpha = %d want ⌈51/3⌉ = 17", d.Alpha())
	}
	if d.R*d.C != d.N() {
		t.Fatal("default split does not cover N")
	}
	// Paper sweeps (128,512),(256,256),(512,128) at N=2^16.
	cands := d.SplitCandidates()
	want := map[[2]int]bool{{128, 512}: true, {256, 256}: true, {512, 128}: true}
	found := 0
	for _, rc := range cands {
		if want[rc] {
			found++
		}
	}
	if found != 3 {
		t.Errorf("SplitCandidates misses paper sweep points: %v", cands)
	}
}

func TestBATBeatsSparseBaseline(t *testing.T) {
	// Tab. V headline: BAT wins on every size, by roughly 1.2–2×.
	c := v6eCompiler(t, SetD())
	cases := [][3]int{{512, 256, 256}, {1024, 256, 256}, {2048, 256, 256},
		{4096, 256, 256}, {1024, 512, 512}, {2048, 2048, 2048}}
	for _, hvw := range cases {
		batT := c.LowerMatModMul(hvw[0], hvw[1], hvw[2], true).Total
		baseT := c.LowerMatModMul(hvw[0], hvw[1], hvw[2], false).Total
		speedup := baseT / batT
		if speedup <= 1.0 {
			t.Errorf("(%d,%d,%d): BAT speedup %.2f ≤ 1", hvw[0], hvw[1], hvw[2], speedup)
		}
		if speedup > 3.0 {
			t.Errorf("(%d,%d,%d): BAT speedup %.2f implausibly high (paper: ≤1.62)", hvw[0], hvw[1], hvw[2], speedup)
		}
	}
}

func TestBConvBATSpeedup(t *testing.T) {
	// Tab. VI: BAT wins 2.5–7.2× on BConv step 2.
	c := v6eCompiler(t, SetD())
	n := 1 << 16
	for _, ll := range [][2]int{{12, 28}, {12, 36}, {16, 40}, {24, 56}} {
		with := c.LowerBConv(n, ll[0], ll[1], true).Total
		without := c.LowerBConv(n, ll[0], ll[1], false).Total
		speedup := without / with
		if speedup < 1.5 {
			t.Errorf("BConv (%d→%d): speedup %.2f too small", ll[0], ll[1], speedup)
		}
		if speedup > 20 {
			t.Errorf("BConv (%d→%d): speedup %.2f implausible", ll[0], ll[1], speedup)
		}
	}
}

func TestMATNTTBeatsRadix2OnTPU(t *testing.T) {
	// Tab. X: the O(N√N) MAT NTT beats the O(N log N) radix-2 NTT on
	// the TPU by an order of magnitude, because shuffles dominate.
	for _, set := range []Params{SetA(), SetB(), SetC()} {
		c := v6eCompiler(t, set)
		batch := 128
		mat := c.LowerNTT(batch).Total
		radix2 := c.LowerNTTRadix2(batch).Total
		if ratio := radix2 / mat; ratio < 5 {
			t.Errorf("N=2^%d: radix-2/MAT ratio %.1f; paper reports ~25–30×", set.LogN, ratio)
		}
	}
}

func TestMATBeats4Step(t *testing.T) {
	// MAT removes the 4-step's transpose + bit-reverse; it must be
	// strictly faster at every batch size.
	c := v6eCompiler(t, SetC())
	for _, batch := range []int{1, 8, 64} {
		mat := c.LowerNTT(batch).Total
		four := c.LowerNTT4Step(batch).Total
		if four <= mat {
			t.Errorf("batch %d: 4-step (%.2eµs) not slower than MAT (%.2eµs)", batch, four*1e6, mat*1e6)
		}
	}
}

func TestBatchImprovesThroughputUntilCapacity(t *testing.T) {
	// Fig. 11b: throughput rises with batch, then falls after the
	// on-chip working set spills.
	c := v6eCompiler(t, SetD())
	thr1 := c.NTTThroughput(1)
	best, bestThr := c.BestNTTBatch(128)
	if bestThr <= thr1 {
		t.Error("batching should improve throughput")
	}
	if best < 2 || best > 64 {
		t.Errorf("Set D optimal batch %d outside plausible range (paper: 8)", best)
	}
	// Past the knee throughput must not keep rising.
	if thrBig := c.NTTThroughput(best * 8); thrBig > bestThr {
		t.Errorf("throughput still rising at batch %d", best*8)
	}
}

func TestSmallerDegreePeaksAtLargerBatch(t *testing.T) {
	// Fig. 11b: Set A peaks at batch 32, Set D at 8 — smaller degrees
	// leave room for more batching.
	cA := v6eCompiler(t, SetA())
	cD := v6eCompiler(t, SetD())
	bestA, _ := cA.BestNTTBatch(128)
	bestD, _ := cD.BestNTTBatch(128)
	if bestA < bestD {
		t.Errorf("Set A best batch %d < Set D best batch %d", bestA, bestD)
	}
}

func TestModRedOrdering(t *testing.T) {
	// Fig. 13a: Montgomery < Barrett < Shoup on the TPU VPU; BAT lazy
	// loses badly (MXU starvation).
	c := v6eCompiler(t, SetD())
	n := SetD().N() * 8
	vecMul := func(alg modarith.ReduceAlgorithm) float64 {
		return c.lowerOp("VecModMul", func() float64 { return c.costVecModMulAlg(n, alg) }).Total
	}
	mont := vecMul(modarith.Montgomery)
	barrett := vecMul(modarith.Barrett)
	shoup := vecMul(modarith.Shoup)
	lazy := vecMul(modarith.BATLazy)
	if !(mont < barrett && barrett < shoup) {
		t.Errorf("VecModMul ordering violated: mont=%.3g barrett=%.3g shoup=%.3g", mont, barrett, shoup)
	}
	if lazy <= mont {
		t.Errorf("BAT lazy (%.3g) should lose to Montgomery (%.3g) on the TPU", lazy, mont)
	}
	ratio := barrett / mont
	if ratio < 1.1 || ratio > 2.0 {
		t.Errorf("Barrett/Montgomery ratio %.2f outside plausible band (paper geomean 1.42)", ratio)
	}
}

func TestNTTModRedOrdering(t *testing.T) {
	// Fig. 13b: Montgomery best for the NTT too.
	ntt := func(alg modarith.ReduceAlgorithm) float64 {
		p := SetD()
		p.Red = alg
		return v6eCompiler(t, p).LowerNTT(8).Total
	}
	mont := ntt(modarith.Montgomery)
	shoup := ntt(modarith.Shoup)
	lazy := ntt(modarith.BATLazy)
	if mont >= shoup {
		t.Error("Montgomery NTT should beat Shoup NTT")
	}
	if lazy <= mont {
		t.Error("BAT-lazy NTT should lose to Montgomery NTT")
	}
}

func TestKeySwitchCountsTextbook(t *testing.T) {
	c := v6eCompiler(t, SetD())
	k := c.keySwitchCounts()
	l, alpha, dnum := 51, 17, 3
	ext := l + alpha
	if k.INTTLimbs != dnum*alpha+2*alpha {
		t.Errorf("INTT limbs %d", k.INTTLimbs)
	}
	if k.NTTLimbs != dnum*(ext-alpha)+2*l {
		t.Errorf("NTT limbs %d", k.NTTLimbs)
	}
	if k.VecMulN != dnum*2*ext+2*l {
		t.Errorf("VecMul count %d", k.VecMulN)
	}
}

func TestHEOpRelativeCosts(t *testing.T) {
	c := v6eCompiler(t, SetD())
	ops := c.MeasureHEOps()
	// Structural orderings from Tab. VIII: Add ≪ Rescale < Mult;
	// Rotate is mult-like (dominated by the same key switch).
	if !(ops.Add < ops.Rescale && ops.Rescale < ops.Mult) {
		t.Errorf("ordering violated: add=%.3g rescale=%.3g mult=%.3g", ops.Add, ops.Rescale, ops.Mult)
	}
	if ops.Rotate >= ops.Mult {
		t.Errorf("rotate (%.3g) should be ≤ mult (%.3g): same key switch, no tensor product", ops.Rotate, ops.Mult)
	}
	if ops.Mult/ops.Add < 20 {
		t.Errorf("mult/add ratio %.1f too small (paper: ~145× on v6e-8)", ops.Mult/ops.Add)
	}
}

func TestHEMultBreakdownShape(t *testing.T) {
	// Fig. 12: on v6e Set D, HE-Mult is VPU-bound — VecModOps is the
	// largest category and NTT/INTT/BConv matmuls stay a minority.
	tr := v6eCompiler(t, SetD()).LowerHEMult().Trace
	total := tr.Total()
	vec := tr.Seconds(tpusim.CatVecModOps) / total
	mm := (tr.Seconds(tpusim.CatNTTMatMul) + tr.Seconds(tpusim.CatINTTMatMul) + tr.Seconds(tpusim.CatBConvMatMul)) / total
	if vec < 0.25 {
		t.Errorf("VecModOps share %.0f%% too small; paper: 51%%", vec*100)
	}
	if mm > 0.5 {
		t.Errorf("MatMul share %.0f%% too large; paper: ~25%%", mm*100)
	}
}

func TestRotateHasPermutationShare(t *testing.T) {
	tr := v6eCompiler(t, SetD()).LowerRotate().Trace
	perm := tr.Seconds(tpusim.CatPermutation) / tr.Total()
	if perm < 0.03 || perm > 0.6 {
		t.Errorf("Rotate permutation share %.0f%% implausible (paper: 21%%)", perm*100)
	}
}

func TestBootstrapCost(t *testing.T) {
	c := v6eCompiler(t, SetB())
	s := DefaultBootstrapSchedule(SetB())
	if s.Rotations <= 0 || s.Mults <= 0 {
		t.Fatal("degenerate bootstrap schedule")
	}
	boot := c.LowerBootstrap(s).Total
	mult := c.LowerHEMult().Total
	if boot < float64(s.Mults)*mult {
		t.Error("bootstrap cheaper than its own multiplications")
	}
}

func TestGenerationalScaling(t *testing.T) {
	// Tab. VII: every newer generation delivers more NTT/s.
	var prev float64
	for _, spec := range tpusim.AllSpecs() {
		c, err := Compile(tpusim.NewDevice(spec), SetB())
		if err != nil {
			t.Fatal(err)
		}
		_, thr := c.BestNTTBatch(128)
		if thr <= prev {
			t.Errorf("%s NTT throughput %.0f not above predecessor %.0f", spec.Name, thr, prev)
		}
		prev = thr
	}
}

func TestHigherDegreeLowerThroughput(t *testing.T) {
	// Tab. VII: throughput drops superlinearly with degree (O(N√N)).
	var prev float64 = 1e30
	for _, set := range []Params{SetA(), SetB(), SetC()} {
		c := v6eCompiler(t, set)
		_, thr := c.BestNTTBatch(128)
		if thr >= prev {
			t.Errorf("N=2^%d throughput %.0f not below smaller degree", set.LogN, thr)
		}
		prev = thr
	}
}

func TestNewRejectsInvalidParams(t *testing.T) {
	bad := SetA()
	bad.L = 0
	if _, err := Compile(tpusim.NewDevice(tpusim.TPUv4()), bad); err == nil {
		t.Error("expected validation error")
	}
}
