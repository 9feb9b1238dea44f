package ckks

import (
	"fmt"
	"sync"

	"cross/internal/modarith"
	"cross/internal/ring"
	"cross/internal/rns"
)

// KernelCounters tallies HE-kernel invocations (limb-granular) so the
// functional path can be cross-checked against internal/cross's TPU
// schedule — the two faces of the compiler must agree on how much work
// each operator performs.
type KernelCounters struct {
	NTTLimbs   int
	INTTLimbs  int
	BConvCalls int
	VecMulN    int // N-length modular multiplications
	VecAddN    int // N-length modular additions/subtractions
	Automorph  int
}

// Evaluator executes CKKS operators on the CPU. It is the functional
// twin of the cross.Compiler lowering.
type Evaluator struct {
	p   *Parameters
	rlk *RelinearizationKey
	gks map[uint64]*GaloisKey
	Kc  KernelCounters

	// scratch recycles full-width (L+Alpha limb) polynomials for the
	// key-switch pipeline's intermediates (digit extraction buffers,
	// accumulators, ModUp extensions), so the steady-state operator
	// allocates only its returned ciphertext.
	scratch sync.Pool // *polyScratch
}

// polyScratch is a pooled full-width polynomial plus a truncated view
// of it; the view's limb count is set per borrow.
type polyScratch struct {
	full *ring.Poly
	view ring.Poly
}

// getPoly borrows a polynomial with the given limb count. When zero is
// set the view's limbs are cleared (accumulator use); otherwise the
// contents are undefined and the caller must overwrite before reading.
func (ev *Evaluator) getPoly(limbs int, zero bool) *polyScratch {
	sp, ok := ev.scratch.Get().(*polyScratch)
	if !ok {
		sp = &polyScratch{full: ring.NewPoly(ev.p.L+ev.p.Alpha, ev.p.N())}
	}
	sp.view.Coeffs = sp.full.Coeffs[:limbs]
	if zero {
		for i := 0; i < limbs; i++ {
			clear(sp.view.Coeffs[i])
		}
	}
	return sp
}

func (ev *Evaluator) putPoly(sp *polyScratch) { ev.scratch.Put(sp) }

// NewEvaluator builds an evaluator; rlk and gks may be nil when the
// corresponding operators are unused.
func NewEvaluator(p *Parameters, rlk *RelinearizationKey, gks map[uint64]*GaloisKey) *Evaluator {
	return &Evaluator{p: p, rlk: rlk, gks: gks}
}

// ResetCounters clears the kernel tally.
func (ev *Evaluator) ResetCounters() { ev.Kc = KernelCounters{} }

// Add returns ct1 + ct2.
func (ev *Evaluator) Add(ct1, ct2 *Ciphertext) (*Ciphertext, error) {
	if err := checkCompatible(ct1, ct2); err != nil {
		return nil, err
	}
	rq := ev.p.RingQP
	out := &Ciphertext{
		C0: ring.NewPoly(ct1.Level+1, ev.p.N()), C1: ring.NewPoly(ct1.Level+1, ev.p.N()),
		Level: ct1.Level, Scale: ct1.Scale,
	}
	rq.Add(ct1.C0, ct2.C0, out.C0)
	rq.Add(ct1.C1, ct2.C1, out.C1)
	ev.Kc.VecAddN += 2 * (ct1.Level + 1)
	return out, nil
}

// Sub returns ct1 − ct2.
func (ev *Evaluator) Sub(ct1, ct2 *Ciphertext) (*Ciphertext, error) {
	if err := checkCompatible(ct1, ct2); err != nil {
		return nil, err
	}
	rq := ev.p.RingQP
	out := &Ciphertext{
		C0: ring.NewPoly(ct1.Level+1, ev.p.N()), C1: ring.NewPoly(ct1.Level+1, ev.p.N()),
		Level: ct1.Level, Scale: ct1.Scale,
	}
	rq.Sub(ct1.C0, ct2.C0, out.C0)
	rq.Sub(ct1.C1, ct2.C1, out.C1)
	ev.Kc.VecAddN += 2 * (ct1.Level + 1)
	return out, nil
}

// AddPlain returns ct + pt (matching level and scale).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if ct.Level != pt.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	out := ct.CopyNew()
	ev.p.RingQP.Add(out.C0, pt.Value, out.C0)
	ev.Kc.VecAddN += ct.Level + 1
	return out, nil
}

// MulPlain returns ct ⊙ pt; the output scale multiplies.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if ct.Level != pt.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	rq := ev.p.RingQP
	out := ct.CopyNew()
	rq.MulCoeffs(out.C0, pt.Value, out.C0)
	rq.MulCoeffs(out.C1, pt.Value, out.C1)
	out.Scale = ct.Scale * pt.Scale
	ev.Kc.VecMulN += 2 * (ct.Level + 1)
	return out, nil
}

// MulRelin multiplies two ciphertexts and relinearises the degree-2
// term with the relinearisation key. The output scale multiplies; call
// Rescale afterwards to bring it back down (the paper's HE-Mult lowers
// tensor product + key switch + rescale, §III-A).
func (ev *Evaluator) MulRelin(ct1, ct2 *Ciphertext) (*Ciphertext, error) {
	if ct1.Level != ct2.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct1.Level, ct2.Level)
	}
	if ev.rlk == nil {
		return nil, fmt.Errorf("ckks: evaluator has no relinearisation key")
	}
	rq := ev.p.RingQP
	lvl := ct1.Level
	n := ev.p.N()

	d0 := ring.NewPoly(lvl+1, n)
	d1 := ring.NewPoly(lvl+1, n)
	d2s := ev.getPoly(lvl+1, false)
	d2 := &d2s.view
	ev.tensor(ct1, ct2, d0, d1, d2)
	ev.Kc.VecMulN += 4 * (lvl + 1)
	ev.Kc.VecAddN += lvl + 1

	ks0, ks1 := ev.keySwitch(d2, lvl, &ev.rlk.SwitchingKey)
	ev.putPoly(d2s)
	rq.ForLimbs(lvl+1, func(i int) {
		m := rq.Moduli[i]
		m.VecAddMod(d0.Coeffs[i], d0.Coeffs[i], ks0.Coeffs[i])
		m.VecAddMod(d1.Coeffs[i], d1.Coeffs[i], ks1.Coeffs[i])
	})
	ev.Kc.VecAddN += 2 * (lvl + 1)

	return &Ciphertext{C0: d0, C1: d1, Level: lvl, Scale: ct1.Scale * ct2.Scale}, nil
}

// tensor sets d0 = a0·b0, d1 = a0·b1 + a1·b0 and d2 = a1·b1 over the
// limbs of d0, one limb per task, for ciphertexts (a0, a1) and
// (b0, b1). d1 must be zero. When the parameters allow it (lazyKeyIP
// implies 2·(q−1)² < 2^64) d1's two products are summed in one word and
// reduced once; otherwise each is reduced. Every output is fully
// reduced, so both paths agree.
func (ev *Evaluator) tensor(ct1, ct2 *Ciphertext, d0, d1, d2 *ring.Poly) {
	rq := ev.p.RingQP
	lazy := ev.p.lazyKeyIP
	rq.ForLimbs(len(d0.Coeffs), func(i int) {
		m := rq.Moduli[i]
		a0, a1 := ct1.C0.Coeffs[i], ct1.C1.Coeffs[i]
		b0, b1 := ct2.C0.Coeffs[i], ct2.C1.Coeffs[i]
		m.VecMulMod(d0.Coeffs[i], a0, b0, modarith.Barrett)
		m.VecMulMod(d2.Coeffs[i], a1, b1, modarith.Barrett)
		if lazy {
			rns.MulAddLazy(m, d1.Coeffs[i], a0, b1)
			rns.MulAddReduce(m, d1.Coeffs[i], a1, b0)
		} else {
			m.VecMulMod(d1.Coeffs[i], a0, b1, modarith.Barrett)
			m.VecMulAddMod(d1.Coeffs[i], a1, b0)
		}
	})
}

// Rescale divides the ciphertext by its top prime, dropping one level
// and dividing the scale by that prime.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level == 0 {
		return nil, fmt.Errorf("ckks: cannot rescale at level 0")
	}
	lvl := ct.Level
	c0, c1 := ev.rescale(ct.C0, ct.C1, lvl)
	return &Ciphertext{C0: c0, C1: c1, Level: lvl - 1, Scale: ct.Scale / float64(ev.p.QPrimes[lvl])}, nil
}

// rescale computes round(c / q_lvl) in RNS for both polynomials of a
// ciphertext: INTT the top limb, re-embed it into the remaining limbs,
// subtract, and multiply by q_lvl⁻¹ (the exact-division trick; the
// rounding error is folded into the ciphertext noise). The top limb is
// carried over by its centred lift, so the division rounds. The 2·lvl
// output limbs are spread over the ring's workers.
func (ev *Evaluator) rescale(c0, c1 *ring.Poly, lvl int) (*ring.Poly, *ring.Poly) {
	rq := ev.p.RingQP
	n := ev.p.N()
	qTop := ev.p.QPrimes[lvl]

	in := [2]*ring.Poly{c0, c1}
	tb0, tb1 := rq.GetScratch(), rq.GetScratch()
	defer rq.PutScratch(tb0)
	defer rq.PutScratch(tb1)
	tops := [2][]uint64{(*tb0)[:n], (*tb1)[:n]}
	for h, top := range tops {
		copy(top, in[h].Coeffs[lvl])
		rq.INTTLimb(lvl, top)
	}

	out := [2]*ring.Poly{ring.NewPoly(lvl, n), ring.NewPoly(lvl, n)}
	rq.ForLimbs(2*lvl, func(t int) {
		h, i := t/lvl, t%lvl
		m := rq.Moduli[i]
		dst := out[h].Coeffs[i]
		m.VecReduceCentered(dst, tops[h], qTop)
		rq.NTTLimb(i, dst)
		// (c_i − top) · qTop⁻¹ mod q_i
		inv := m.InvMod(m.Reduce(qTop))
		m.VecSubScalarMulModShoup(dst, in[h].Coeffs[i], dst, inv, m.ShoupPrecompute(inv))
	})
	ev.Kc.INTTLimbs += 2
	ev.Kc.NTTLimbs += 2 * lvl
	ev.Kc.VecAddN += 2 * lvl
	ev.Kc.VecMulN += 2 * lvl
	ev.Kc.BConvCalls += 2
	return out[0], out[1]
}

// Rotate rotates the plaintext slots left by k positions using the
// corresponding Galois key.
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) (*Ciphertext, error) {
	g := ev.p.RingQP.GaloisElementForRotation(k)
	return ev.applyGalois(ct, g)
}

// Conjugate applies complex conjugation to the slots.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	return ev.applyGalois(ct, ev.p.RingQP.GaloisElementForConjugation())
}

func (ev *Evaluator) applyGalois(ct *Ciphertext, g uint64) (*Ciphertext, error) {
	gk, ok := ev.gks[g]
	if !ok {
		return nil, fmt.Errorf("ckks: no Galois key for element %d", g)
	}
	rq := ev.p.RingQP
	lvl := ct.Level

	// The slot table is built once per galois element and cached in the
	// ring's arena; this lookup is allocation-free afterwards.
	idx, err := rq.AutomorphismNTTIndex(g)
	if err != nil {
		return nil, err
	}

	c1s := ev.getPoly(lvl+1, false)
	c1 := &c1s.view
	rq.ForLimbs(lvl+1, func(i int) { rq.AutomorphismNTTLimb(ct.C1.Coeffs[i], c1.Coeffs[i], idx) })
	ks0, ks1 := ev.keySwitch(c1, lvl, &gk.SwitchingKey)
	ev.putPoly(c1s)
	c0 := ev.automorphAdd(ct.C0, ks0, idx)
	ev.Kc.Automorph += 2 * (lvl + 1)
	ev.Kc.VecAddN += lvl + 1
	return &Ciphertext{C0: c0, C1: ks1, Level: lvl, Scale: ct.Scale}, nil
}

// automorphAdd returns τ(c) + ks for the automorphism with slot table
// idx, one limb per task: the C0 tail of a rotation.
func (ev *Evaluator) automorphAdd(c, ks *ring.Poly, idx []int) *ring.Poly {
	rq := ev.p.RingQP
	out := ring.NewPoly(len(ks.Coeffs), ev.p.N())
	rq.ForLimbs(len(out.Coeffs), func(i int) {
		dst := out.Coeffs[i]
		rq.AutomorphismNTTLimb(c.Coeffs[i], dst, idx)
		rq.Moduli[i].VecAddMod(dst, dst, ks.Coeffs[i])
	})
	return out
}

// keySwitch applies the hybrid key switch (Han–Ki) to a single NTT-domain
// polynomial d at the given level, returning the (b, a) contribution
// pair at the same level. This is the kernel pipeline of §III-A:
// digit extraction → INTT → ModUp (BConv) → NTT → evk inner product →
// ModDown.
func (ev *Evaluator) keySwitch(d *ring.Poly, lvl int, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	p := ev.p
	rq := p.RingQP
	total := p.L + p.Alpha
	dnum := p.NumDigits(lvl)

	// Coefficient-domain copy of d for digit extraction.
	dCoeffS := ev.getPoly(lvl+1, false)
	dCoeff := &dCoeffS.view
	dCoeff.Copy(d)
	rq.INTT(dCoeff)
	ev.Kc.INTTLimbs += lvl + 1

	// Accumulators over Q_lvl ∪ P (full limb layout; unused limbs idle).
	acc0S := ev.getPoly(total, true)
	acc1S := ev.getPoly(total, true)
	acc0, acc1 := &acc0S.view, &acc1S.view
	extLimbs := append(qLimbs(lvl), p.pLimbs()...)

	extS := ev.getPoly(total, false)
	for j := 0; j < dnum; j++ {
		lo, hi, ok := p.digitRange(j, lvl)
		if !ok {
			break
		}
		// The digit's own limbs stay in the NTT domain (copied from d);
		// only the basis-converted limbs need a forward transform.
		ext := &extS.view
		ev.modUp(ext, d, dCoeff, lo, hi, lvl)
		ev.keyInnerProduct(acc0, acc1, ext, extLimbs, swk, j, j == dnum-1)
	}
	ev.putPoly(extS)
	ev.putPoly(dCoeffS)

	b, a := ev.modDown(acc0, acc1, lvl)
	ev.putPoly(acc0S)
	ev.putPoly(acc1S)
	return b, a
}

// keyInnerProduct accumulates ext ⊙ (B_j, A_j), the product of one
// ModUp-extended digit with key digit j, into (acc0, acc1) over limbs,
// one limb per task. Accumulators start at zero and digits arrive in
// order; last marks the final one. When the parameters allow it
// (lazyKeyIP: dnum·(q_max−1)² < 2^64) the raw products are summed
// across digits in one word and reduced only while the last digit is
// added, so no extra pass runs (rns.MulAddLazy/MulAddReduce, AVX-512
// for primes below 2^32); otherwise every digit's products are reduced
// into [0, q). Inputs are residues in [0, q), so all paths give the same
// outputs.
func (ev *Evaluator) keyInnerProduct(acc0, acc1, ext *ring.Poly, limbs []int, swk *SwitchingKey, j int, last bool) {
	rq := ev.p.RingQP
	lazy := ev.p.lazyKeyIP
	rq.ForLimbs(len(limbs), func(t int) {
		i := limbs[t]
		m := rq.Moduli[i]
		e := ext.Coeffs[i]
		b := swk.B[j].Coeffs[i][:len(e)]
		a := swk.A[j].Coeffs[i][:len(e)]
		c0 := acc0.Coeffs[i][:len(e)]
		c1 := acc1.Coeffs[i][:len(e)]
		switch {
		case !lazy:
			for k, x := range e {
				c0[k] = m.AddMod(c0[k], m.BarrettMul(x, b[k]))
				c1[k] = m.AddMod(c1[k], m.BarrettMul(x, a[k]))
			}
		case last:
			rns.MulAddReduce(m, c0, e, b)
			rns.MulAddReduce(m, c1, e, a)
		default:
			rns.MulAddLazy(m, c0, e, b)
			rns.MulAddLazy(m, c1, e, a)
		}
	})
	ev.Kc.VecMulN += 2 * len(limbs)
	ev.Kc.VecAddN += 2 * len(limbs)
}

// modUp extends digit limbs [lo, hi) to the full Q_lvl ∪ P basis and
// writes the result into ext (a full-width scratch polynomial): the
// digit's own limbs are copied straight from the NTT-domain input d,
// the remaining limbs come from the approximate BConv of the
// coefficient-domain dCoeff followed by a forward NTT each. BConv
// Step 1 runs in place on dCoeff's digit limbs, which no other digit
// reads, so modUp consumes them. Both phases are spread over the
// ring's workers: Step 1 one source limb per task, then one target
// limb per task — its Step 2 row and its NTT, back to back while the
// limb is still in cache.
func (ev *Evaluator) modUp(ext, d, dCoeff *ring.Poly, lo, hi, lvl int) {
	p := ev.p
	rq := p.RingQP

	src := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		src = append(src, i)
		copy(ext.Coeffs[i], d.Coeffs[i])
	}
	dst := make([]int, 0, lvl+1+p.Alpha)
	for i := 0; i <= lvl; i++ {
		if i < lo || i >= hi {
			dst = append(dst, i)
		}
	}
	dst = append(dst, p.pLimbs()...)

	conv := p.converter(src, dst)
	y := dCoeff.Coeffs[lo:hi]
	rq.ForLimbs(len(y), func(si int) { conv.Step1Limb(si, y[si], y[si]) })
	rq.ForLimbs(len(dst), func(di int) {
		i := dst[di]
		conv.Step2Row(di, ext.Coeffs[i], y)
		rq.NTTLimb(i, ext.Coeffs[i])
	})
	ev.Kc.NTTLimbs += len(dst)
	ev.Kc.BConvCalls++
}

// modDown divides the two NTT-domain key-switch accumulators over
// Q_lvl ∪ P by P: INTT the special limbs and run BConv Step 1 on them
// (in place — the accumulators are keySwitch scratch whose P limbs are
// dead afterwards), then per Q limb run the Step 2 row, NTT, subtract,
// and multiply by P⁻¹ mod q_i. Each phase covers both accumulators and
// is spread over the ring's workers, one limb per task.
func (ev *Evaluator) modDown(acc0, acc1 *ring.Poly, lvl int) (*ring.Poly, *ring.Poly) {
	p := ev.p
	rq := p.RingQP
	n := p.N()
	alpha, q := p.Alpha, lvl+1

	conv := p.converter(p.pLimbs(), qLimbs(lvl))
	accs := [2]*ring.Poly{acc0, acc1}
	rq.ForLimbs(2*alpha, func(t int) {
		si := t % alpha
		y := accs[t/alpha].Coeffs[p.L+si]
		rq.INTTLimb(p.L+si, y)
		conv.Step1Limb(si, y, y)
	})

	res := [2]*ring.Poly{ring.NewPoly(q, n), ring.NewPoly(q, n)}
	rq.ForLimbs(2*q, func(t int) {
		acc, i := accs[t/q], t%q
		m := rq.Moduli[i]
		dst := res[t/q].Coeffs[i]
		conv.Step2Row(i, dst, acc.Coeffs[p.L:p.L+alpha])
		rq.NTTLimb(i, dst)
		inv := p.PInvModQ(i)
		m.VecSubScalarMulModShoup(dst, acc.Coeffs[i], dst, inv, m.ShoupPrecompute(inv))
	})
	ev.Kc.INTTLimbs += 2 * alpha
	ev.Kc.BConvCalls += 2
	ev.Kc.NTTLimbs += 2 * q
	ev.Kc.VecAddN += 2 * q
	ev.Kc.VecMulN += 2 * q
	return res[0], res[1]
}

// DropLevel truncates a ciphertext to a lower level without scaling
// (used to align operands).
func (ev *Evaluator) DropLevel(ct *Ciphertext, toLevel int) (*Ciphertext, error) {
	if toLevel < 0 || toLevel > ct.Level {
		return nil, fmt.Errorf("ckks: cannot drop from level %d to %d", ct.Level, toLevel)
	}
	out := ct.CopyNew()
	out.C0.Truncate(toLevel)
	out.C1.Truncate(toLevel)
	out.Level = toLevel
	return out, nil
}
