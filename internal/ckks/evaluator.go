package ckks

import (
	"fmt"

	"cross/internal/ring"
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
// twin of the cross.Compiler lowering. An Evaluator is not safe for
// concurrent use; evaluators sharing one Parameters are.
type Evaluator struct {
	p   *Parameters
	rlk *RelinearizationKey
	gks map[uint64]*GaloisKey
	Kc  KernelCounters

	// The key switch's intermediates: its input d, d's coefficient-
	// domain digits dc and the accumulators over Q ∪ P. Their limbs are
	// borrowed from the ring's arena for one operator and returned, so
	// an operator allocates only its returned ciphertext.
	d, dc ring.Poly
	acc   [2]ring.Poly

	op  limbOp    // operands of the limb phase in flight (forLimbs)
	run func(int) // runs op.task; bound once in NewEvaluator
}

// NewEvaluator builds an evaluator; rlk and gks may be nil when the
// corresponding operators are unused.
func NewEvaluator(p *Parameters, rlk *RelinearizationKey, gks map[uint64]*GaloisKey) *Evaluator {
	ev := &Evaluator{p: p, rlk: rlk, gks: gks}
	ev.run = func(t int) { ev.op.task(ev, t) }
	return ev
}

// newCiphertext allocates a zero ciphertext at level lvl.
func (ev *Evaluator) newCiphertext(lvl int, scale float64) *Ciphertext {
	n := ev.p.N()
	return &Ciphertext{C0: ring.NewPoly(lvl+1, n), C1: ring.NewPoly(lvl+1, n), Level: lvl, Scale: scale}
}

// ResetCounters clears the kernel tally.
func (ev *Evaluator) ResetCounters() { ev.Kc = KernelCounters{} }

// Add returns ct1 + ct2.
func (ev *Evaluator) Add(ct1, ct2 *Ciphertext) (*Ciphertext, error) {
	if err := checkCompatible(ct1, ct2); err != nil {
		return nil, err
	}
	out := ev.newCiphertext(ct1.Level, ct1.Scale)
	ev.p.RingQP.Add(ct1.C0, ct2.C0, out.C0)
	ev.p.RingQP.Add(ct1.C1, ct2.C1, out.C1)
	ev.Kc.VecAddN += 2 * (ct1.Level + 1)
	return out, nil
}

// Sub returns ct1 − ct2.
func (ev *Evaluator) Sub(ct1, ct2 *Ciphertext) (*Ciphertext, error) {
	if err := checkCompatible(ct1, ct2); err != nil {
		return nil, err
	}
	out := ev.newCiphertext(ct1.Level, ct1.Scale)
	ev.p.RingQP.Sub(ct1.C0, ct2.C0, out.C0)
	ev.p.RingQP.Sub(ct1.C1, ct2.C1, out.C1)
	ev.Kc.VecAddN += 2 * (ct1.Level + 1)
	return out, nil
}

// AddPlain returns ct + pt (matching level and scale).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if ct.Level != pt.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	out := &Ciphertext{C0: ring.NewPoly(ct.Level+1, ev.p.N()), C1: ct.C1.CopyNew(), Level: ct.Level, Scale: ct.Scale}
	ev.p.RingQP.Add(ct.C0, pt.Value, out.C0)
	ev.Kc.VecAddN += ct.Level + 1
	return out, nil
}

// MulPlain returns ct ⊙ pt; the output scale multiplies.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if ct.Level != pt.Level {
		return nil, fmt.Errorf("ckks: level mismatch %d vs %d", ct.Level, pt.Level)
	}
	out := ev.newCiphertext(ct.Level, ct.Scale*pt.Scale)
	ev.p.RingQP.MulCoeffs(ct.C0, pt.Value, out.C0)
	ev.p.RingQP.MulCoeffs(ct.C1, pt.Value, out.C1)
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
	out := ev.newCiphertext(ct1.Level, ct1.Scale*ct2.Scale)
	ev.mulRelinInto(out, ct1, ct2)
	return out, nil
}

// mulRelinInto is MulRelin into out, a ciphertext at the operands'
// level: the tensor product writes (d0, d1) into out, one limb per
// task, and the key switch of d2 adds into both.
func (ev *Evaluator) mulRelinInto(out, ct1, ct2 *Ciphertext) {
	lvl, rq := ct1.Level, ev.p.RingQP
	rq.BorrowPoly(&ev.d, lvl+1)
	ev.op = limbOp{a: ct1, b: ct2, d: &ev.d, out: [2]*ring.Poly{out.C0, out.C1}}
	ev.forLimbs(lvl+1, (*Evaluator).tensorLimb)
	ev.Kc.VecMulN += 4 * (lvl + 1)
	ev.Kc.VecAddN += lvl + 1
	ev.keySwitch(&ev.d, lvl, &ev.rlk.SwitchingKey, out.C0, out.C1, false)
	rq.ReturnPoly(&ev.d)
	ev.Kc.VecAddN += 2 * (lvl + 1)
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
	tops := [2][]uint64{rq.GetScratch()[:n], rq.GetScratch()[:n]}
	defer rq.PutScratch(tops[0])
	defer rq.PutScratch(tops[1])
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
	return ev.applyGalois(ct, ev.p.RingQP.GaloisElementForRotation(k))
}

// Conjugate applies complex conjugation to the slots.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	return ev.applyGalois(ct, ev.p.RingQP.GaloisElementForConjugation())
}

func (ev *Evaluator) applyGalois(ct *Ciphertext, g uint64) (*Ciphertext, error) {
	out := ev.newCiphertext(ct.Level, ct.Scale)
	if err := ev.applyGaloisInto(out, ct, g); err != nil {
		return nil, err
	}
	return out, nil
}

// applyGaloisInto sets out = τ_g(ct), a ciphertext at ct's level: one
// phase writes τ(c0) into out's C0 and τ(c1) into ev.d, one limb per
// task; the key switch of τ(c1) then adds into C0 and sets C1.
func (ev *Evaluator) applyGaloisInto(out, ct *Ciphertext, g uint64) error {
	gk, ok := ev.gks[g]
	if !ok {
		return fmt.Errorf("ckks: no Galois key for element %d", g)
	}
	// The slot table is built once per galois element and cached in the
	// ring's arena; this lookup is allocation-free afterwards.
	idx, err := ev.p.RingQP.AutomorphismNTTIndex(g)
	if err != nil {
		return err
	}
	lvl, rq := ct.Level, ev.p.RingQP
	rq.BorrowPoly(&ev.d, lvl+1)
	ev.op = limbOp{a: ct, idx: idx, d: &ev.d, out: [2]*ring.Poly{out.C0, out.C1}}
	ev.forLimbs(lvl+1, (*Evaluator).automorphLimb)
	ev.keySwitch(&ev.d, lvl, &gk.SwitchingKey, out.C0, out.C1, true)
	rq.ReturnPoly(&ev.d)
	ev.Kc.Automorph += 2 * (lvl + 1)
	ev.Kc.VecAddN += lvl + 1
	return nil
}

// DropLevel truncates a ciphertext to a lower level without scaling
// (used to align operands), copying only the limbs it keeps.
func (ev *Evaluator) DropLevel(ct *Ciphertext, toLevel int) (*Ciphertext, error) {
	if toLevel < 0 || toLevel > ct.Level {
		return nil, fmt.Errorf("ckks: cannot drop from level %d to %d", ct.Level, toLevel)
	}
	out := ev.newCiphertext(toLevel, ct.Scale)
	for i := range out.C0.Coeffs {
		copy(out.C0.Coeffs[i], ct.C0.Coeffs[i])
		copy(out.C1.Coeffs[i], ct.C1.Coeffs[i])
	}
	return out, nil
}
