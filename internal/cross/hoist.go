package cross

// Hoisted-rotation lowering (Halevi–Shoup, used by the MAD packed
// bootstrapping the paper adopts): when one ciphertext feeds many
// rotations — the BSGS baby steps of CoeffToSlot/SlotToCoeff — the
// digit decomposition (INTT + ModUp + NTT) is computed once and shared;
// each additional rotation pays only the automorphism gather, the evk
// inner product, and the ModDown. The functional twin is
// ckks.Evaluator.RotateHoisted.

// costDecompose charges the rotation-independent half of a key switch:
// INTT of all limbs plus per-digit ModUp (BConv + NTT of the extended
// limbs).
func (c *Compiler) costDecompose() float64 {
	n := c.P.N()
	alpha := c.P.Alpha()
	dnum := c.P.Dnum
	l := c.P.L
	ext := l + alpha

	t := c.costINTTMat(l)
	for d := 0; d < dnum; d++ {
		t += c.costBConv(n, alpha, ext-alpha, true)
		t += c.costNTTMat(ext - alpha)
	}
	return t
}

// costApplyHoisted charges the per-rotation remainder: the automorphism
// gather over the extended digits, the evk inner product, and ModDown
// of both accumulator polynomials.
func (c *Compiler) costApplyHoisted() float64 {
	n := c.P.N()
	alpha := c.P.Alpha()
	dnum := c.P.Dnum
	l := c.P.L
	ext := l + alpha

	// Automorphism over every extended digit + the c0 polynomial.
	t := c.costAutomorphism(dnum*ext + l)
	// evk inner product.
	t += c.costVecModMul(dnum * 2 * ext * n)
	t += c.costVecModAdd((dnum - 1) * 2 * ext * n)
	// ModDown ×2.
	for p := 0; p < 2; p++ {
		t += c.costINTTMat(alpha)
		t += c.costBConv(n, alpha, l, true)
		t += c.costNTTMat(l)
		t += c.costVecModAdd(l * n)
		t += c.costVecModMul(l * n)
	}
	return t
}

// costRotateHoisted charges a batch of rotations of one ciphertext with
// a shared decomposition. For count = 1 this is strictly more expensive
// than costRotate only by bookkeeping noise; the win grows linearly
// with count (the hoisting ablation of DESIGN.md §5).
func (c *Compiler) costRotateHoisted(count int) float64 {
	if count < 1 {
		return 0
	}
	t := c.costDecompose()
	for i := 0; i < count; i++ {
		t += c.costApplyHoisted()
	}
	return t
}

// costBootstrapHoisted prices the packed-bootstrapping schedule with
// hoisted BSGS rotations: the schedule's rotations arrive in groups
// sharing one decomposition (the baby steps of each linear-transform
// level). groupSize is the average sharing factor; the MAD design
// shares ~√(rotations per level).
func (c *Compiler) costBootstrapHoisted(s BootstrapSchedule, groupSize int) float64 {
	if groupSize < 1 {
		groupSize = 1
	}
	var t float64
	groups := (s.Rotations + groupSize - 1) / groupSize
	for g := 0; g < groups; g++ {
		remaining := s.Rotations - g*groupSize
		if remaining > groupSize {
			remaining = groupSize
		}
		t += c.costRotateHoisted(remaining)
	}
	return c.costBootstrapTail(t, s)
}
