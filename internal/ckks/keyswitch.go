package ckks

import (
	"cross/internal/modarith"
	"cross/internal/ring"
	"cross/internal/rns"
)

// limbOp holds the operands of the limb phase in flight. Tasks are
// method expressions reading it, and Evaluator.run is bound once per
// evaluator, so a phase allocates nothing.
type limbOp struct {
	task     func(ev *Evaluator, t int)
	lvl      int
	a, b     *Ciphertext // tensor operands; a is also the ciphertext rotated
	idx      []int       // automorphism slot table, or nil
	d, dc    *ring.Poly  // key-switch input (NTT domain) and its Step 1 output
	exts     []*ring.Poly
	swk      *SwitchingKey
	conv     *levelConverters
	acc, out [2]*ring.Poly
	setC1    bool // ModDown sets out[1] instead of adding into it
}

// forLimbs runs task(ev, 0..n-1) over the ring's workers with ev.op
// as its operands.
func (ev *Evaluator) forLimbs(n int, task func(*Evaluator, int)) {
	ev.op.task = task
	ev.p.RingQP.ForLimbs(n, ev.run)
}

// limb maps task index t over Q_lvl ∪ P to its ring limb.
func (ev *Evaluator) limb(t int) int {
	if t > ev.op.lvl {
		return ev.p.L + t - ev.op.lvl - 1
	}
	return t
}

// keySwitch adds the hybrid key switch (Han–Ki) of the NTT-domain d at
// level lvl under swk into out0, and into out1 (or sets out1 when
// setC1). §III-A's decompose → ModUp → key inner product → ModDown runs
// output-stationary: one phase moves d to the coefficient domain and
// runs every digit's BConv Step 1; then one task per limb of Q_lvl ∪ P
// extends that limb for each digit and multiply-accumulates it with the
// key while it is still in cache; ModDown then writes straight into the
// destination. The hoisted key switch (applyHoisted) shares this core
// and differs only in where a digit's extended limb comes from.
func (ev *Evaluator) keySwitch(d *ring.Poly, lvl int, swk *SwitchingKey, out0, out1 *ring.Poly, setC1 bool) {
	dc := ev.getPoly(lvl + 1)
	ev.op = limbOp{lvl: lvl, d: d, dc: &dc.view, conv: ev.p.keySwitchConverters(lvl)}
	ev.modUpStep1()
	ev.switchCore(swk, out0, out1, setC1)
	ev.putPoly(dc)
}

// applyHoisted is keySwitch from a hoisted decomposition, its digits
// permuted by the automorphism idx when idx is not nil (τ commutes with
// ModUp because basis conversion is coefficient-wise).
func (ev *Evaluator) applyHoisted(h *hoistedDecomposition, idx []int, swk *SwitchingKey, out0, out1 *ring.Poly, setC1 bool) {
	ev.op = limbOp{lvl: h.level, idx: idx, exts: h.exts, conv: ev.p.keySwitchConverters(h.level)}
	if idx != nil {
		ev.Kc.Automorph += len(h.exts) * (h.level + 1 + ev.p.Alpha)
	}
	ev.switchCore(swk, out0, out1, setC1)
}

// modUpStep1 moves d's limbs to the coefficient domain (ev.op.dc) and
// runs each digit's BConv Step 1 on them in place, one source limb per
// task.
func (ev *Evaluator) modUpStep1() {
	ev.forLimbs(ev.op.lvl+1, func(ev *Evaluator, s int) {
		op, alpha := &ev.op, ev.p.Alpha
		y := op.dc.Coeffs[s]
		copy(y, op.d.Coeffs[s])
		ev.p.RingQP.INTTLimb(s, y)
		op.conv.up[s/alpha].Step1Limb(s%alpha, y, y)
	})
	q, dnum := ev.op.lvl+1, ev.p.NumDigits(ev.op.lvl)
	ev.Kc.INTTLimbs += q
	ev.Kc.NTTLimbs += dnum*(q+ev.p.Alpha) - q // Q_lvl ∪ P less the digit's own limbs, per digit
	ev.Kc.BConvCalls += dnum
}

// extLimb returns limb t of digit j extended to Q_lvl ∪ P, in the NTT
// domain, using buf when it has to be computed. Hoisted, it is the
// stored extension, permuted when ev.op.idx is set. Otherwise a limb of
// the digit itself is d's own limb, and any other is the digit's
// BConv Step 2 row followed by a forward NTT.
func (ev *Evaluator) extLimb(j, t int, buf []uint64) []uint64 {
	op, rq := &ev.op, ev.p.RingQP
	i := ev.limb(t)
	if op.exts != nil {
		if op.idx == nil {
			return op.exts[j].Coeffs[i]
		}
		rq.AutomorphismNTTLimb(op.exts[j].Coeffs[i], buf, op.idx)
		return buf
	}
	lo, hi, _ := ev.p.digitRange(j, op.lvl)
	if lo <= t && t < hi {
		return op.d.Coeffs[t]
	}
	row := t
	if t >= hi {
		row -= hi - lo
	}
	op.conv.up[j].Step2Row(row, buf, op.dc.Coeffs[lo:hi])
	rq.NTTLimb(i, buf)
	return buf
}

// switchCore runs the key inner product over Q_lvl ∪ P, one limb per
// task, into pooled accumulators, then ModDown into (out0, out1).
func (ev *Evaluator) switchCore(swk *SwitchingKey, out0, out1 *ring.Poly, setC1 bool) {
	total := ev.p.L + ev.p.Alpha
	acc0, acc1 := ev.getPoly(total), ev.getPoly(total)
	op := &ev.op
	op.swk, op.acc, op.out, op.setC1 = swk, [2]*ring.Poly{&acc0.view, &acc1.view}, [2]*ring.Poly{out0, out1}, setC1
	n := op.lvl + 1 + ev.p.Alpha
	ev.forLimbs(n, (*Evaluator).innerProductLimb)
	dnum := ev.p.NumDigits(op.lvl)
	ev.Kc.VecMulN += 2 * n * dnum
	ev.Kc.VecAddN += 2 * n * dnum
	ev.modDown()
	ev.putPoly(acc0)
	ev.putPoly(acc1)
	ev.op = limbOp{} // hold no ciphertext or key between ops
}

// innerProductLimb accumulates Σ_j ext_j ⊙ (B_j, A_j) into limb t of
// the accumulators, which it clears first. When the parameters allow it
// (lazyKeyIP: dnum·(q_max−1)² < 2^64) the raw products are summed
// across digits in one word and reduced only while the last digit is
// added (rns.MulAddLazy/MulAddReduce, AVX-512 for primes below 2^32);
// otherwise every digit's products are reduced into [0, q). Inputs are
// residues in [0, q), so all paths give the same outputs.
func (ev *Evaluator) innerProductLimb(t int) {
	op, rq := &ev.op, ev.p.RingQP
	i := ev.limb(t)
	m := rq.Moduli[i]
	c0, c1 := op.acc[0].Coeffs[i], op.acc[1].Coeffs[i]
	clear(c0)
	clear(c1)
	sb := rq.GetScratch()
	last := ev.p.NumDigits(op.lvl) - 1
	for j := 0; j <= last; j++ {
		e := ev.extLimb(j, t, (*sb)[:len(c0)])
		b, a := op.swk.B[j].Coeffs[i][:len(e)], op.swk.A[j].Coeffs[i][:len(e)]
		switch {
		case !ev.p.lazyKeyIP:
			for k, x := range e {
				c0[k] = m.AddMod(c0[k], m.BarrettMul(x, b[k]))
				c1[k] = m.AddMod(c1[k], m.BarrettMul(x, a[k]))
			}
		case j == last:
			rns.MulAddReduce(m, c0, e, b)
			rns.MulAddReduce(m, c1, e, a)
		default:
			rns.MulAddLazy(m, c0, e, b)
			rns.MulAddLazy(m, c1, e, a)
		}
	}
	rq.PutScratch(sb)
}

// modDown divides both accumulators over Q_lvl ∪ P by P: INTT the
// special limbs and run BConv Step 1 on them in place, then per Q limb
// the Step 2 row, NTT, subtract, multiply by P⁻¹ mod q_i, and add the
// result into out[h] (or set out[1] when setC1). Each phase covers both
// accumulators, one limb per task.
func (ev *Evaluator) modDown() {
	p := ev.p
	alpha, q := p.Alpha, ev.op.lvl+1
	ev.forLimbs(2*alpha, func(ev *Evaluator, t int) {
		si := t % ev.p.Alpha
		y := ev.op.acc[t/ev.p.Alpha].Coeffs[ev.p.L+si]
		ev.p.RingQP.INTTLimb(ev.p.L+si, y)
		ev.op.conv.down.Step1Limb(si, y, y)
	})
	ev.forLimbs(2*q, (*Evaluator).modDownLimb)
	ev.Kc.INTTLimbs += 2 * alpha
	ev.Kc.BConvCalls += 2
	ev.Kc.NTTLimbs += 2 * q
	ev.Kc.VecAddN += 2 * q
	ev.Kc.VecMulN += 2 * q
}

func (ev *Evaluator) modDownLimb(t int) {
	p, op := ev.p, &ev.op
	q := op.lvl + 1
	h, i := t/q, t%q
	m := p.RingQP.Moduli[i]
	dst := op.out[h].Coeffs[i]
	res := dst
	var sb *[]uint64
	if h == 0 || !op.setC1 {
		sb = p.RingQP.GetScratch()
		res = (*sb)[:len(dst)]
	}
	acc := op.acc[h]
	op.conv.down.Step2Row(i, res, acc.Coeffs[p.L:p.L+p.Alpha])
	p.RingQP.NTTLimb(i, res)
	inv := p.PInvModQ(i)
	m.VecSubScalarMulModShoup(res, acc.Coeffs[i], res, inv, m.ShoupPrecompute(inv))
	if sb != nil {
		m.VecAddMod(dst, dst, res)
		p.RingQP.PutScratch(sb)
	}
}

// tensorLimb sets out0 = a0·b0, out1 = a0·b1 + a1·b0 and d = a1·b1 on
// limb i for ciphertexts (a0, a1) and (b0, b1). When the parameters
// allow it (lazyKeyIP implies 2·(q−1)² < 2^64) out1's two products are
// summed in one word and reduced once; otherwise each is reduced. Every
// output is fully reduced, so both paths agree.
func (ev *Evaluator) tensorLimb(i int) {
	op := &ev.op
	m := ev.p.RingQP.Moduli[i]
	a0, a1 := op.a.C0.Coeffs[i], op.a.C1.Coeffs[i]
	b0, b1 := op.b.C0.Coeffs[i], op.b.C1.Coeffs[i]
	d1 := op.out[1].Coeffs[i]
	m.VecMulMod(op.out[0].Coeffs[i], a0, b0, modarith.Barrett)
	m.VecMulMod(op.d.Coeffs[i], a1, b1, modarith.Barrett)
	if ev.p.lazyKeyIP {
		clear(d1)
		rns.MulAddLazy(m, d1, a0, b1)
		rns.MulAddReduce(m, d1, a1, b0)
	} else {
		m.VecMulMod(d1, a0, b1, modarith.Barrett)
		m.VecMulAddMod(d1, a1, b0)
	}
}

// automorphLimb sets out0 = τ(a0) on limb i and, on the single path,
// d = τ(a1): the rotation's inputs to the key switch.
func (ev *Evaluator) automorphLimb(i int) {
	op, rq := &ev.op, ev.p.RingQP
	rq.AutomorphismNTTLimb(op.a.C0.Coeffs[i], op.out[0].Coeffs[i], op.idx)
	if op.d != nil {
		rq.AutomorphismNTTLimb(op.a.C1.Coeffs[i], op.d.Coeffs[i], op.idx)
	}
}
