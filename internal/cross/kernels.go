package cross

import (
	"sync"

	"cross/internal/modarith"
	"cross/internal/tpusim"
)

// VPU operation counts per element for the arithmetic primitives, on
// 32-bit lanes with 16-bit multiply primitives (the TPU's native
// shape, Alg. 1's "16-bit primitives"). These are the model's only
// hand-tuned constants; everything else derives from Tab. IV specs.
const (
	opsMul32 = 4 // 32×32→64-bit product from four 16-bit multiplies

	// Modular reduction of a 64-bit product (Fig. 13 ablation):
	opsMontgomeryRed = 11 // Alg. 1: 1 low mult + 4 16-bit mults + 6 adds/shifts
	opsBarrettRed    = 16 // Alg. 4: 64×32 high mult + mul-sub + 2 corrections
	opsShoupRed      = 24 // needs 64-bit multiplies, emulated on 32-bit lanes

	// Butterfly overhead beyond the modular multiply (add, sub, lazy
	// corrections) for the radix-2 kernel.
	opsButterflyExtra = 5

	// Chunk merge: K shifted adds plus carry normalisation.
	opsChunkMerge = 8
)

// redOps returns the per-element VPU cost of one modular reduction.
func redOps(alg modarith.ReduceAlgorithm) float64 {
	switch alg {
	case modarith.Montgomery:
		return opsMontgomeryRed
	case modarith.Shoup:
		return opsShoupRed
	case modarith.BATLazy:
		// handled structurally (MXU matmul); VPU side only merges.
		return opsChunkMerge
	default:
		return opsBarrettRed
	}
}

// Compiler lowers HE kernels for one Target and parameter set. The
// lowering is written once: independent work units (RNS limbs, slots,
// key-switch digits) shard across the target's cores and collective
// cost is charged exactly where the mathematics mixes limbs or digits
// (BConv step 2, the key-switch inner product). On a single-core
// target every shard is the whole and every collective is free, so the
// lowering reduces to the paper's single-core model bit-exactly.
type Compiler struct {
	// T is the lowering target: a *tpusim.Device or *tpusim.Pod.
	T Target
	// Dev is the target's representative core (T.Core()), kept as a
	// field because most of the lowering charges it directly.
	Dev *tpusim.Device
	P   Params

	// mu serialises lowerOp: a lowering swaps the live traces and the
	// kernel tally in place, so concurrent Lower* calls on one compiler
	// (sweep workers sharing a target) must not interleave.
	mu sync.Mutex

	// tally counts kernel invocations for the Schedule IR.
	tally KernelCounts
}

// Compile validates the parameters and returns a compiler for any
// lowering target — a bare tensor core or a multi-core pod.
func Compile(t Target, p Params) (*Compiler, error) {
	if t == nil || t.Core() == nil {
		return nil, errNilTarget
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Compiler{T: t, Dev: t.Core(), P: p}, nil
}

// NumCores returns the target's core count.
func (c *Compiler) NumCores() int { return c.T.NumCores() }

// shard returns the per-core share of `units` independent work units
// (the critical path is the core with the ceiling share).
func (c *Compiler) shard(units int) int {
	if units <= 0 {
		return 0
	}
	n := c.T.NumCores()
	return (units + n - 1) / n
}

// --- collective helpers (tallied for the Schedule IR) ---

func (c *Compiler) allGather(bytes int64) float64 {
	if c.T.NumCores() > 1 {
		c.tally.Collectives++
	}
	return c.T.AllGather(bytes)
}

func (c *Compiler) allReduce(bytes int64) float64 {
	if c.T.NumCores() > 1 {
		c.tally.Collectives++
	}
	return c.T.AllReduce(bytes)
}

func (c *Compiler) broadcast(bytes int64) float64 {
	if c.T.NumCores() > 1 {
		c.tally.Collectives++
	}
	return c.T.Broadcast(bytes)
}

// --- VecModMul (Fig. 13a) ---

// costVecModMul returns the simulated time of an n-element modular
// multiplication of two runtime vectors under the configured reduction
// algorithm, with the element range sharded across the target's cores
// (slot parallelism — no communication). BATLazy routes the reduction
// through the MXU (a skinny (n, K, K) matmul) — faithfully reproducing
// why it loses on the TPU's 128-wide tiles (§V-F2).
func (c *Compiler) costVecModMul(n int) float64 {
	return c.costVecModMulAlg(c.shard(n), c.P.Red)
}

// costVecModMulAlg is the core-local lowering (no sharding).
func (c *Compiler) costVecModMulAlg(n int, alg modarith.ReduceAlgorithm) float64 {
	c.tally.VecMuls++
	if alg == modarith.BATLazy {
		t := c.Dev.Dispatch(tpusim.CatOther)
		t += c.Dev.VecOp(tpusim.CatVecModOps, n, opsMul32)
		t += c.Dev.TypeConvert(tpusim.CatTypeConv, n)
		k := c.P.K()
		// One (n, K, K) INT8 matmul folds the overflow bytes (§J);
		// reduction dimension K=4 strands the systolic array.
		t += c.Dev.MatMulINT8(tpusim.CatOther, n, k, k)
		t += c.Dev.VecOp(tpusim.CatVecModOps, n, opsChunkMerge)
		return t
	}
	return c.Dev.Dispatch(tpusim.CatOther) + c.Dev.VecOp(tpusim.CatVecModOps, n, opsMul32+redOps(alg))
}

// costVecModAdd returns the time of an n-element modular addition,
// slot-sharded across the target.
func (c *Compiler) costVecModAdd(n int) float64 {
	return c.costVecModAddLocal(c.shard(n))
}

// costVecModAddLocal is the core-local addition (no sharding).
func (c *Compiler) costVecModAddLocal(n int) float64 {
	c.tally.VecAdds++
	return c.Dev.Dispatch(tpusim.CatOther) + c.Dev.VecOp(tpusim.CatVecModOps, n, 3)
}

// --- High-precision ModMatMul (Tab. V) ---
//
// The ModMatMul ablations are single-core analysis kernels (Tab. V's
// benchmark runs on one tensor core); they charge the representative
// core whatever the target.

// costMatModMulBAT lowers an (H, V, W) modular matmul with pre-known
// left operand through BAT: one dense (KH, KV, W) INT8 matmul, runtime
// chunk-stacking of the right operand only, and a K-length merge chain.
func (c *Compiler) costMatModMulBAT(h, v, w int) float64 {
	k := c.P.K()
	c.tally.MatMuls++
	t := c.Dev.Dispatch(tpusim.CatOther)
	t += c.Dev.TypeConvert(tpusim.CatTypeConv, v*w) // RUNTIMECOMPILERIGHT
	t += c.Dev.MatMulINT8(tpusim.CatNTTMatMul, k*h, k*v, w)
	// Merge K partial-sum rows per output + one lazy reduction.
	t += c.Dev.VecOp(tpusim.CatVecModOps, h*w, opsChunkMerge+redOps(c.P.Red))
	// Operand residency: dense left matrix streamed from HBM once.
	t += c.Dev.HBM(tpusim.CatHBM, int64(k*h*k*v))
	return t
}

// costMatModMulBaseline lowers the same matmul the SoTA GPU way
// (Fig. 7 left): the sparse Toeplitz expansion has (2K−1)/K more rows
// (~43% zeros), the left operand is chunk-converted at runtime because
// the sparse form isn't cached as bytes, and the carry chain is double
// length (2K−1 merges).
func (c *Compiler) costMatModMulBaseline(h, v, w int) float64 {
	k := c.P.K()
	c.tally.MatMuls++
	rows := (2*k - 1) * h
	t := 2 * c.Dev.Dispatch(tpusim.CatOther)
	t += c.Dev.TypeConvert(tpusim.CatTypeConv, v*w+h*v) // both operands
	t += c.Dev.MatMulINT8(tpusim.CatNTTMatMul, rows, k*v, w)
	t += c.Dev.VecOp(tpusim.CatVecModOps, h*w, float64(2*k-1)*2+redOps(c.P.Red))
	// Sparse operand is (2K−1)/K ≈ 1.75× larger in memory (Fig. 3 ❶).
	t += c.Dev.HBM(tpusim.CatHBM, int64(rows*k*v))
	return t
}

// --- BConv step 2 (Tab. VI) ---

// costBConv returns the simulated time of a full basis conversion of an
// N-coefficient polynomial from l to lOut limbs. Step 1 is
// limb-parallel; step 2 multiplies ALL source limbs into every
// destination limb, so on a multi-core target the coefficient-domain
// source is all-gathered before each core computes its ⌈lOut/n⌉
// destination limbs. With BAT the step-2 (N, L, L')-ModMatMul runs on
// the MXU as (N, KL, KL'); without, it runs as L·L' scalar passes on
// the VPU (§III-C1).
func (c *Compiler) costBConv(n, l, lOut int, useBAT bool) float64 {
	return c.costBConvGathered(n, l, lOut, useBAT) + c.allGather(int64(4*n*l))
}

// costBConvGathered is costBConv minus the all-gather (the caller has
// already paid to replicate the source): step 1 limb-sharded, then the
// step-2 matmul over the full source with the output limbs sharded.
func (c *Compiler) costBConvGathered(n, l, lOut int, useBAT bool) float64 {
	return c.costBConvShardedBy(n, l, lOut, useBAT, c.shard)
}

// costBConvLocal is the fully core-local basis conversion — used for
// per-digit ModUp work inside the key switch, where a digit's whole
// chain lives on one core.
func (c *Compiler) costBConvLocal(n, l, lOut int, useBAT bool) float64 {
	return c.costBConvShardedBy(n, l, lOut, useBAT, func(units int) int { return units })
}

// costBConvShardedBy is the one BConv cost model; sh maps a limb count
// to the per-core share (the identity for core-local conversions).
func (c *Compiler) costBConvShardedBy(n, l, lOut int, useBAT bool, sh func(int) int) float64 {
	c.tally.BConvs++
	alg := c.P.Red
	// Step 1: l independent N-length VecModMul (both strategies).
	t := c.Dev.Dispatch(tpusim.CatOther)
	t += c.Dev.VecOp(tpusim.CatVecModOps, n*sh(l), opsMul32+redOps(alg))
	if useBAT {
		k := c.P.K()
		t += c.Dev.TypeConvert(tpusim.CatTypeConv, n*l)
		t += c.Dev.MatMulINT8(tpusim.CatBConvMatMul, n, k*l, k*sh(lOut))
		t += c.Dev.VecOp(tpusim.CatVecModOps, n*sh(lOut), opsChunkMerge+redOps(alg))
		t += c.Dev.HBM(tpusim.CatHBM, int64(k*l*k*sh(lOut)))
		return t
	}
	// VPU path: for each of the lOut output limbs, an l-term
	// multiply-accumulate over every coefficient.
	t += c.Dev.VecOp(tpusim.CatVecModOps, n*sh(lOut), float64(l)*(opsMul32+redOps(alg)+1))
	t += c.Dev.HBM(tpusim.CatHBM, int64(4*l*sh(lOut)))
	return t
}

// --- NTT variants (Tab. VII, Tab. X, Fig. 11, Fig. 13b) ---

// NTTWorkingSetBytes estimates the on-chip footprint of a batch of
// MAT NTTs: the two BAT-compiled twiddle matrices, the element-wise
// twist, and per-batch input/output/intermediate tiles. Drives the
// batch-capacity knee of Fig. 11b.
func (c *Compiler) NTTWorkingSetBytes(batch int) int64 {
	k := int64(c.P.K())
	r, cc := int64(c.P.R), int64(c.P.C)
	n := int64(c.P.N())
	params := (k*cc)*(k*cc) + (k*r)*(k*r) + 4*n // T1, T3, twist
	perBatch := 4 * n * 3                       // in, out, intermediate
	return params + int64(batch)*perBatch
}

// costNTTMat returns the simulated latency of `batch` layout-invariant
// 3-step NTTs of one limb (Fig. 10 row 3), round-robined across the
// target's cores: each core transforms its ⌈batch/n⌉ share and the
// outputs stay sharded (element-wise consumers are layout- and
// placement-agnostic, the MAT property extended across the pod). On
// one core: two BAT INT8 matmuls on the MXU, the element-wise twist
// and Montgomery reductions on the VPU, and zero reordering.
func (c *Compiler) costNTTMat(batch int) float64 {
	return c.costNTTMatAlg(c.shard(batch), c.P.Red, tpusim.CatNTTMatMul)
}

// costINTTMat is the sharded inverse transform (same structure,
// inverse matrices) charged to the INTT category.
func (c *Compiler) costINTTMat(batch int) float64 {
	return c.costNTTMatAlg(c.shard(batch), c.P.Red, tpusim.CatINTTMatMul)
}

// costNTTMatAlg is the core-local MAT NTT lowering of one batch.
func (c *Compiler) costNTTMatAlg(batch int, alg modarith.ReduceAlgorithm, matCat string) float64 {
	if matCat == tpusim.CatINTTMatMul {
		c.tally.INTTs++
	} else {
		c.tally.NTTs++
	}
	k := c.P.K()
	r, cc := c.P.R, c.P.C
	n := c.P.N()

	// One XLA launch covers the fused 3-step plan.
	t := c.Dev.Dispatch(tpusim.CatOther)
	// Chunk-stack the input coefficients (Fig. 12 "Type Conversion").
	t += c.Dev.TypeConvert(tpusim.CatTypeConv, n*batch)
	// Step 1: TF(KC×KC) @ coef(KC×R) per batch element — batched as a
	// wider right-hand side.
	t += c.Dev.MatMulINT8(matCat, k*cc, k*cc, r*batch)
	t += c.vecReduce(n*batch, alg)
	// Step 2: element-wise twist on the VPU.
	t += c.costVecModMulConst(n*batch, alg)
	// XLA relayout of the intermediate to (8,128) tiles between steps
	// (Fig. 12 "Copy+Reshape").
	t += c.Dev.Copy(tpusim.CatCopyReshape, int64(4*n*batch))
	// Step 3: TF(KR×KR) @ (KR×C).
	t += c.Dev.TypeConvert(tpusim.CatTypeConv, n*batch)
	t += c.Dev.MatMulINT8(matCat, k*r, k*r, cc*batch)
	t += c.vecReduce(n*batch, alg)

	// Off-chip traffic: data always streams; parameters amortise across
	// the batch only while the working set fits on-chip (Fig. 11b).
	paramBytes := int64((k*cc)*(k*cc) + (k*r)*(k*r) + 4*n)
	dataBytes := int64(4 * n * 2 * batch)
	if c.Dev.FitsOnChip(c.NTTWorkingSetBytes(batch)) {
		t += c.Dev.HBM(tpusim.CatHBM, paramBytes+dataBytes)
	} else {
		t += c.Dev.HBM(tpusim.CatHBM, paramBytes*int64(batch)+dataBytes)
	}
	return t
}

// vecReduce charges the post-matmul merge + modular reduction.
func (c *Compiler) vecReduce(n int, alg modarith.ReduceAlgorithm) float64 {
	if alg == modarith.BATLazy {
		k := c.P.K()
		t := c.Dev.MatMulINT8(tpusim.CatOther, n, k, k)
		t += c.Dev.VecOp(tpusim.CatVecModOps, n, opsChunkMerge)
		return t
	}
	return c.Dev.VecOp(tpusim.CatVecModOps, n, opsChunkMerge+redOps(alg))
}

// costVecModMulConst is an element-wise multiply by compile-time
// constants (the twist): the constant side is pre-reduced, so one
// multiply + one reduction per element.
func (c *Compiler) costVecModMulConst(n int, alg modarith.ReduceAlgorithm) float64 {
	if alg == modarith.BATLazy {
		return c.costVecModMulAlg(n, alg)
	}
	return c.Dev.VecOp(tpusim.CatVecModOps, n, opsMul32+redOps(alg))
}

// costNTTRadix2 returns the simulated latency of `batch` radix-2
// Cooley–Tukey NTTs (Alg. 3) on one core: log2(N) stages of VPU
// butterflies each followed by a bit-complement shuffle whose block
// size halves per stage — the fine-grained reordering that collapses
// XLU utilization (§F1, Tab. X).
func (c *Compiler) costNTTRadix2(batch int) float64 {
	n := c.P.N()
	var t float64
	butterflyOps := opsMul32 + redOps(c.P.Red) + opsButterflyExtra
	half := n
	for stage := 0; stage < c.P.LogN; stage++ {
		half >>= 1
		t += 2 * c.Dev.Dispatch(tpusim.CatOther)
		t += c.Dev.VecOp(tpusim.CatVecModOps, n/2*batch, butterflyOps)
		t += c.Dev.Shuffle(tpusim.CatPermutation, n*batch, half)
	}
	t += c.Dev.HBM(tpusim.CatHBM, int64(4*n*2*batch)+int64(4*n))
	return t
}

// costNTT4Step returns the simulated latency of the GPU-style 4-step
// NTT on one core: the same matrix pipeline as MAT plus the explicit
// runtime transpose and bit-reverse shuffles MAT eliminates (§III-D1).
func (c *Compiler) costNTT4Step(batch int) float64 {
	n := c.P.N()
	t := c.costNTTMatAlg(batch, c.P.Red, tpusim.CatNTTMatMul)
	// Runtime transpose of the R×C tile per batch element.
	t += 2 * c.Dev.Dispatch(tpusim.CatOther)
	t += c.Dev.Transpose(tpusim.CatPermutation, n*batch)
	// Bit-reverse shuffle: element-granular.
	t += c.Dev.Shuffle(tpusim.CatPermutation, n*batch, 1)
	// Extra layout round trip through VMEM.
	t += c.Dev.Copy(tpusim.CatCopyReshape, int64(4*n*batch))
	return t
}

// costAutomorphism returns the cost of τ_t on `limbs` polynomial limbs,
// limb-sharded across the target: MAT cannot embed a general
// automorphism, so each limb lowers to a random gather (§V-E) —
// Fig. 12's 21% Permutation share.
func (c *Compiler) costAutomorphism(limbs int) float64 {
	c.tally.Gathers++
	return c.Dev.Dispatch(tpusim.CatOther) +
		c.Dev.Gather(tpusim.CatPermutation, c.shard(limbs)*c.P.N())
}

// NTTThroughput returns NTTs/second at a batch size on the target.
func (c *Compiler) NTTThroughput(batch int) float64 {
	return float64(batch) / c.LowerNTT(batch).Total
}

// BestNTTBatch sweeps powers of two up to maxBatch and returns the
// batch size with peak throughput and that throughput — the knee
// finder behind Fig. 11b.
func (c *Compiler) BestNTTBatch(maxBatch int) (int, float64) {
	best, bestThr := 1, 0.0
	for b := 1; b <= maxBatch; b <<= 1 {
		if thr := c.NTTThroughput(b); thr > bestThr {
			best, bestThr = b, thr
		}
	}
	return best, bestThr
}
