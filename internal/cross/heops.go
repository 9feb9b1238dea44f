package cross

import "cross/internal/tpusim"

// HE operator lowering (§III-A's Scheduling layer). Each CKKS operator
// is a fixed schedule of HE kernels; CROSS lowers every kernel with
// BAT+MAT and the simulator accumulates per-category time, regenerating
// the operator latencies of Tab. VIII and the breakdowns of Fig. 12.
//
// The schedules implement full-RNS CKKS with hybrid key switching
// (Han–Ki, [37]): L ciphertext limbs split into dnum digits of
// α = ⌈L/dnum⌉ limbs each, with α auxiliary (special) primes P.
//
// Every operator is lowered once, against the Target interface. The
// two parallelism axes HE kernels expose shard across the target's
// cores:
//
//   - limb parallelism: RNS limbs are independent through NTT/INTT and
//     all element-wise arithmetic, so batches of limb transforms split
//     across cores with no communication;
//   - slot parallelism: element-wise VecMod* kernels split their
//     element range across cores with no communication.
//
// Communication appears exactly where the mathematics mixes limbs or
// digits:
//
//   - BConv step 2 multiplies ALL source limbs into every destination
//     limb, so the coefficient-domain source must be all-gathered
//     before each core computes its destination-limb shard;
//   - the key-switch inner product accumulates across digits that live
//     on different cores, costing one all-reduce of the two
//     accumulator polynomials over the extended basis.
//
// On a single-core target every shard is the whole batch and every
// collective is free, so the lowering is bit-identical to the paper's
// single-core model.

// KeySwitchCounts tallies the kernel invocations of one hybrid key
// switch at level L — exposed so tests can check the schedule against
// the textbook operation counts.
type KeySwitchCounts struct {
	INTTLimbs int // limbs inverse-transformed (digit extraction + ModDown)
	NTTLimbs  int // limbs forward-transformed (ModUp + ModDown)
	BConvIn   int // total source limbs across basis conversions
	BConvOut  int // total destination limbs
	VecMulN   int // N-length modular multiplications (evk inner product…)
	VecAddN   int // N-length modular additions
}

// keySwitchCounts derives the schedule for the configured params.
func (c *Compiler) keySwitchCounts() KeySwitchCounts {
	l := c.P.L
	alpha := c.P.Alpha()
	dnum := c.P.Dnum
	ext := l + alpha // limbs after ModUp (Q ∪ P)

	var k KeySwitchCounts
	// Per digit: extract α limbs to coefficient domain, convert to the
	// remaining L−α+α = L extended limbs, transform back.
	k.INTTLimbs += dnum * alpha
	k.BConvIn += dnum * alpha
	k.BConvOut += dnum * (ext - alpha)
	k.NTTLimbs += dnum * (ext - alpha)
	// Inner product with the two evk polynomials over the extended
	// basis, accumulated across digits.
	k.VecMulN += dnum * 2 * ext
	k.VecAddN += (dnum - 1) * 2 * ext
	// ModDown for both result polynomials: INTT the α special limbs,
	// convert to Q, NTT, subtract, multiply by P⁻¹.
	k.INTTLimbs += 2 * alpha
	k.BConvIn += 2 * alpha
	k.BConvOut += 2 * l
	k.NTTLimbs += 2 * l
	k.VecMulN += 2 * l
	k.VecAddN += 2 * l
	return k
}

// costKeySwitch charges one hybrid key switch and returns its time.
// The dnum ModUp digits are independent and round-robin across cores
// (a digit's INTT → BConv → NTT chain is core-local); the cross-digit
// inner-product accumulation costs one all-reduce of both accumulator
// polynomials over the extended basis; ModDown proceeds limb-parallel
// with a gathered BConv per result polynomial.
func (c *Compiler) costKeySwitch() float64 {
	n := c.P.N()
	alpha := c.P.Alpha()
	dnum := c.P.Dnum
	l := c.P.L
	ext := l + alpha

	var t float64
	// ModUp: each core runs its ⌈dnum/n⌉ digits serially.
	dShard := c.shard(dnum)
	for d := 0; d < dShard; d++ {
		t += c.costNTTMatAlg(alpha, c.P.Red, tpusim.CatINTTMatMul)
		t += c.costBConvLocal(n, alpha, ext-alpha, true)
		t += c.costNTTMatAlg(ext-alpha, c.P.Red, tpusim.CatNTTMatMul)
	}
	// evk inner product over the local digits, then all-reduce the two
	// accumulator polynomials (ext limbs × N coefficients × 4 bytes).
	t += c.costVecModMulAlg(dShard*2*ext*n, c.P.Red)
	t += c.costVecModAddLocal((dShard - 1) * 2 * ext * n)
	t += c.allReduce(int64(2 * ext * n * 4))
	// ModDown ×2 result polynomials, limb-parallel.
	for p := 0; p < 2; p++ {
		t += c.costINTTMat(alpha)
		t += c.allGather(int64(4 * n * alpha))
		t += c.costBConvGathered(n, alpha, l, true)
		t += c.costNTTMat(l)
		t += c.costVecModAdd(l * n) // subtract
		t += c.costVecModMul(l * n) // × P⁻¹ mod q_i
	}
	return t
}

// costHEAdd charges a ciphertext addition (2 polys × L limbs,
// slot-parallel).
func (c *Compiler) costHEAdd() float64 {
	return c.costVecModAdd(2 * c.P.L * c.P.N())
}

// costHEMult charges a full ciphertext multiplication: tensor product
// (slot-parallel), relinearisation (key switch), and rescale
// (limb-parallel) — §III-A HE Multiplication.
func (c *Compiler) costHEMult() float64 {
	n := c.P.N()
	l := c.P.L
	// Tensor product: d0 = a₁a₂, d2 = b₁b₂, d1 = a₁b₂ + a₂b₁.
	t := c.costVecModMul(4 * l * n)
	t += c.costVecModAdd(l * n)
	// Relinearise d2.
	t += c.costKeySwitch()
	// Combine and rescale.
	t += c.costVecModAdd(2 * l * n)
	t += c.costRescale()
	return t
}

// costRescale charges one rescaling: drop the top limb of both polys —
// the dropped limb is inverse-transformed on one core and replicated
// (it is the BConv source for every output limb), then the L−1 output
// limbs proceed limb-parallel.
func (c *Compiler) costRescale() float64 {
	n := c.P.N()
	l := c.P.L
	var t float64
	for p := 0; p < 2; p++ {
		t += c.costNTTMatAlg(1, c.P.Red, tpusim.CatINTTMatMul)
		t += c.broadcast(int64(4 * n))
		t += c.costBConvGathered(n, 1, l-1, true)
		t += c.costNTTMat(l - 1)
		t += c.costVecModAdd((l - 1) * n)
		t += c.costVecModMul((l - 1) * n) // × q_L⁻¹ mod q_i
	}
	return t
}

// costRotate charges a slot rotation: the limb-sharded automorphism
// permutation on both polynomials (the gather MAT cannot embed, §V-E)
// plus a key switch with the rotation key.
func (c *Compiler) costRotate() float64 {
	t := c.costAutomorphism(2 * c.P.L)
	t += c.costKeySwitch()
	return t
}

// costPtMul charges a plaintext-ciphertext multiplication (2 polys ×
// L limbs VecModMul, no key switch).
func (c *Compiler) costPtMul() float64 {
	return c.costVecModMul(2 * c.P.L * c.P.N())
}

// costPtAdd charges a plaintext-ciphertext addition.
func (c *Compiler) costPtAdd() float64 {
	return c.costVecModAdd(c.P.L * c.P.N())
}

// HEOpLatencies bundles the four benchmark operators of Tab. VIII.
type HEOpLatencies struct {
	Add, Mult, Rescale, Rotate float64 // seconds
}

// MeasureHEOps costs all four operators trace-isolated.
func (c *Compiler) MeasureHEOps() HEOpLatencies {
	return HEOpLatencies{
		Add:     c.LowerHEAdd().Total,
		Mult:    c.LowerHEMult().Total,
		Rescale: c.LowerRescale().Total,
		Rotate:  c.LowerRotate().Total,
	}
}

// BootstrapSchedule is the kernel-count schedule of the packed
// bootstrapping algorithm the paper adopts (MAD [3]): BSGS linear
// transforms for CoeffToSlot/SlotToCoeff plus a polynomial EvalMod.
// Counts follow the paper's §V-A estimation methodology — total kernel
// invocations × profiled per-kernel latency, no pipelining or fusion.
type BootstrapSchedule struct {
	Rotations int // slot rotations across CtS + StC (BSGS)
	Mults     int // ciphertext-ciphertext multiplications (EvalMod)
	PtMuls    int // plaintext multiplications (diagonal matrices, poly coeffs)
	Adds      int // ciphertext additions
	Rescales  int // standalone rescalings
}

// DefaultBootstrapSchedule returns the MAD packed-bootstrapping
// operator budget: CoeffToSlot and SlotToCoeff as multi-level BSGS
// linear transforms with hoisted rotations (≈ logN rotations per level
// after hoisting), and EvalMod as a Paterson–Stockmeyer sine
// approximation (≈ logN + 4 ciphertext multiplications). Counts grow
// logarithmically with degree, matching the memory-aware design of [3]
// rather than a naive √N-rotation transform.
func DefaultBootstrapSchedule(p Params) BootstrapSchedule {
	rot := 2*p.LogN + 32 // CtS + StC rotations after hoisting
	return BootstrapSchedule{
		Rotations: rot,
		Mults:     p.LogN + 4, // EvalMod (Paterson–Stockmeyer)
		PtMuls:    2*rot + 16,
		Adds:      2*rot + 32,
		Rescales:  24,
	}
}

// costBootstrap charges one packed bootstrapping.
func (c *Compiler) costBootstrap(s BootstrapSchedule) float64 {
	var t float64
	for i := 0; i < s.Rotations; i++ {
		t += c.costRotate()
	}
	return c.costBootstrapTail(t, s)
}

// costBootstrapTail charges the rotation-free remainder of a
// bootstrapping (EvalMod multiplications, diagonal plaintext
// multiplications, additions, rescalings), adding into the caller's
// running total t so the float sum keeps the schedule's charge order.
func (c *Compiler) costBootstrapTail(t float64, s BootstrapSchedule) float64 {
	for i := 0; i < s.Mults; i++ {
		t += c.costHEMult()
	}
	for i := 0; i < s.PtMuls; i++ {
		t += c.costPtMul()
	}
	for i := 0; i < s.Adds; i++ {
		t += c.costHEAdd()
	}
	for i := 0; i < s.Rescales; i++ {
		t += c.costRescale()
	}
	return t
}
