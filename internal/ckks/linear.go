package ckks

import (
	"fmt"

	"cross/internal/ring"
)

// Rotation hoisting (Halevi–Shoup) and the BSGS diagonal method for
// plaintext linear transforms — the building blocks of the paper's
// CoeffToSlot/SlotToCoeff bootstrapping stages and of the FC layers in
// the §V-D workloads. Hoisting shares the expensive digit
// decomposition (INTT + ModUp) across all rotations of the same
// ciphertext; the BSGS split reduces d diagonals to ~2√d rotations.

// hoistedDecomposition is the rotation-independent part of a key
// switch: the ModUp-extended digits of c1, in the NTT domain.
type hoistedDecomposition struct {
	level int
	exts  []*ring.Poly // one per digit, L+Alpha limbs
}

// decompose performs the per-ciphertext half of the key switch: the
// Step 1 phase, then per limb of Q_lvl ∪ P every digit's extension. The
// extended digits outlive this call (they are shared across all
// hoisted rotations), so they are real allocations, not scratch.
func (ev *Evaluator) decompose(c1 *ring.Poly, lvl int) *hoistedDecomposition {
	p := ev.p
	h := &hoistedDecomposition{level: lvl, exts: make([]*ring.Poly, p.NumDigits(lvl))}
	for j := range h.exts {
		h.exts[j] = ring.NewPoly(p.L+p.Alpha, p.N())
	}
	dc := ev.getPoly(lvl + 1)
	ev.op = limbOp{lvl: lvl, d: c1, dc: &dc.view, conv: p.keySwitchConverters(lvl)}
	ev.modUpStep1()
	p.RingQP.ForLimbs(lvl+1+p.Alpha, func(t int) {
		for j, ext := range h.exts {
			dst := ext.Coeffs[ev.limb(t)]
			copy(dst, ev.extLimb(j, t, dst))
		}
	})
	ev.putPoly(dc)
	return h
}

// RotateHoisted rotates one ciphertext by several amounts, sharing the
// digit decomposition across all of them. Output order matches ks.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, ks []int) ([]*Ciphertext, error) {
	rq := ev.p.RingQP
	lvl := ct.Level
	h := ev.decompose(ct.C1, lvl)
	out := make([]*Ciphertext, len(ks))
	for i, k := range ks {
		if k == 0 {
			out[i] = ct.CopyNew()
			continue
		}
		g := rq.GaloisElementForRotation(k)
		gk, ok := ev.gks[g]
		if !ok {
			return nil, fmt.Errorf("ckks: no Galois key for rotation %d", k)
		}
		idx, err := rq.AutomorphismNTTIndex(g)
		if err != nil {
			return nil, err
		}
		// τ(c0) into C0, then the key switch adds into it and sets C1.
		out[i] = ev.newCiphertext(lvl, ct.Scale)
		ev.op = limbOp{a: ct, idx: idx, out: [2]*ring.Poly{out[i].C0, out[i].C1}}
		ev.forLimbs(lvl+1, (*Evaluator).automorphLimb)
		ev.applyHoisted(h, idx, &gk.SwitchingKey, out[i].C0, out[i].C1, true)
		ev.Kc.Automorph += lvl + 1
		ev.Kc.VecAddN += lvl + 1
	}
	return out, nil
}

// LinearTransform is a slot-space linear map y = M·x encoded as its
// non-zero (generalised) diagonals, BSGS-split with giant step g.
type LinearTransform struct {
	diags map[int]*Plaintext // rotation amount → encoded diagonal
	giant int
	Level int
	Scale float64
}

// NewLinearTransform encodes the map given by diagonals[d][i] =
// M[i][(i+d) mod slots] at the given level. The BSGS giant step is
// chosen as ⌈√(max |d|+1)⌉ rounded to a power of two.
func (ev *Evaluator) NewLinearTransform(enc *Encoder, diagonals map[int][]complex128, level int, scale float64) (*LinearTransform, error) {
	if len(diagonals) == 0 {
		return nil, fmt.Errorf("ckks: empty linear transform")
	}
	maxD := 0
	for d := range diagonals {
		if d < 0 || d >= ev.p.Slots() {
			return nil, fmt.Errorf("ckks: diagonal index %d out of [0, slots)", d)
		}
		if d > maxD {
			maxD = d
		}
	}
	giant := 1
	for giant*giant < maxD+1 {
		giant <<= 1
	}
	lt := &LinearTransform{diags: make(map[int]*Plaintext, len(diagonals)), giant: giant, Level: level, Scale: scale}
	slots := ev.p.Slots()
	for d, diag := range diagonals {
		if len(diag) != slots {
			return nil, fmt.Errorf("ckks: diagonal %d has %d entries, want %d", d, len(diag), slots)
		}
		// BSGS pre-rotation: diagonal d = g·i + j is multiplied against
		// rot(x, j) inside giant-step group i, then the group result is
		// rotated by g·i; since rot(rot(v, −g·i), g·i) = v, the
		// plaintext is pre-rotated by −g·i.
		i := d / giant
		rotated := make([]complex128, slots)
		for k := range rotated {
			rotated[k] = diag[((k-giant*i)%slots+slots)%slots]
		}
		pt, err := enc.EncodeAtLevel(rotated, level, scale)
		if err != nil {
			return nil, err
		}
		lt.diags[d] = pt
	}
	return lt, nil
}

// GaloisElementsFor lists the rotations the evaluation needs (for key
// generation): baby steps j ∈ [1, giant) and giant steps g·i.
func (lt *LinearTransform) GaloisElementsFor() []int {
	need := map[int]bool{}
	for d := range lt.diags {
		j := d % lt.giant
		i := d / lt.giant
		if j != 0 {
			need[j] = true
		}
		if i != 0 {
			need[lt.giant*i] = true
		}
	}
	out := make([]int, 0, len(need))
	for k := range need {
		out = append(out, k)
	}
	return out
}

// EvalLinearTransform applies the transform with the BSGS algorithm:
// hoisted baby-step rotations, per-group plaintext multiply-accumulate,
// then one giant-step rotation per group.
func (ev *Evaluator) EvalLinearTransform(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, error) {
	if ct.Level != lt.Level {
		return nil, fmt.Errorf("ckks: transform level %d vs ciphertext %d", lt.Level, ct.Level)
	}
	// Baby-step rotations (hoisted: one decomposition for all).
	babySet := map[int]bool{}
	for d := range lt.diags {
		babySet[d%lt.giant] = true
	}
	babies := make([]int, 0, len(babySet))
	for j := range babySet {
		babies = append(babies, j)
	}
	rots, err := ev.RotateHoisted(ct, babies)
	if err != nil {
		return nil, err
	}
	babyCt := make(map[int]*Ciphertext, len(babies))
	for i, j := range babies {
		babyCt[j] = rots[i]
	}

	// Group by giant step.
	groups := map[int]*Ciphertext{}
	for d, pt := range lt.diags {
		i, j := d/lt.giant, d%lt.giant
		term, err := ev.MulPlain(babyCt[j], pt)
		if err != nil {
			return nil, err
		}
		if acc, ok := groups[i]; ok {
			if groups[i], err = ev.Add(acc, term); err != nil {
				return nil, err
			}
		} else {
			groups[i] = term
		}
	}

	// Giant-step rotations and final accumulation.
	var out *Ciphertext
	for i, acc := range groups {
		rotated := acc
		if i != 0 {
			if rotated, err = ev.Rotate(acc, lt.giant*i); err != nil {
				return nil, err
			}
		}
		if out == nil {
			out = rotated
		} else if out, err = ev.Add(out, rotated); err != nil {
			return nil, err
		}
	}
	return ev.Rescale(out)
}
