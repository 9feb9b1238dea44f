package ckks

import (
	"fmt"
	"math"
)

// Polynomial evaluation and slot-summation helpers — the primitives
// behind EvalMod (bootstrapping), the HELR sigmoid, and the square
// activations of the §V-D workloads.

// EvalPoly evaluates Σ coeffs[i]·x^i on a ciphertext with Horner's
// rule: deg multiplications and deg levels. Coefficients are real.
// For the short, low-degree polynomials of the paper's workloads
// (degree ≤ 3 sigmoid, squares) Horner is within one level of optimal;
// bootstrapping-scale polynomials would use Paterson–Stockmeyer, whose
// operation counts the cross package's schedules model.
func (ev *Evaluator) EvalPoly(ct *Ciphertext, coeffs []float64, enc *Encoder) (*Ciphertext, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("ckks: empty polynomial")
	}
	deg := len(coeffs) - 1
	if deg == 0 {
		return nil, fmt.Errorf("ckks: constant polynomial needs no ciphertext")
	}
	if ct.Level < deg {
		return nil, fmt.Errorf("ckks: degree %d needs %d levels, have %d", deg, deg, ct.Level)
	}

	constPt := func(v float64, level int, scale float64) (*Plaintext, error) {
		vals := make([]complex128, ev.p.Slots())
		for i := range vals {
			vals[i] = complex(v, 0)
		}
		return enc.EncodeAtLevel(vals, level, scale)
	}

	// acc = c_deg (as a plaintext-scaled copy of x to seed Horner:
	// acc = c_deg·x + c_{deg-1}, then acc = acc·x + c_i ...).
	pt, err := constPt(coeffs[deg], ct.Level, ev.p.Scale)
	if err != nil {
		return nil, err
	}
	acc, err := ev.MulPlain(ct, pt)
	if err != nil {
		return nil, err
	}
	if acc, err = ev.Rescale(acc); err != nil {
		return nil, err
	}
	addConst := func(acc *Ciphertext, v float64) (*Ciphertext, error) {
		if v == 0 {
			return acc, nil
		}
		pt, err := constPt(v, acc.Level, acc.Scale)
		if err != nil {
			return nil, err
		}
		return ev.AddPlain(acc, pt)
	}
	if acc, err = addConst(acc, coeffs[deg-1]); err != nil {
		return nil, err
	}

	for i := deg - 2; i >= 0; i-- {
		x, err := ev.DropLevel(ct, acc.Level)
		if err != nil {
			return nil, err
		}
		if acc, err = ev.MulRelin(acc, x); err != nil {
			return nil, err
		}
		if acc, err = ev.Rescale(acc); err != nil {
			return nil, err
		}
		if acc, err = addConst(acc, coeffs[i]); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// InnerSum adds rot(ct, k·step) for k ∈ [0, count) with a log-depth
// rotation tree — the slot-summation primitive of inner products and
// pooling layers. count must be a power of two; the needed rotation
// keys are step·2^i for 2^i < count.
func (ev *Evaluator) InnerSum(ct *Ciphertext, step, count int) (*Ciphertext, error) {
	if count <= 0 || count&(count-1) != 0 {
		return nil, fmt.Errorf("ckks: InnerSum count %d must be a power of two", count)
	}
	acc := ct.CopyNew()
	for s := 1; s < count; s <<= 1 {
		rot, err := ev.Rotate(acc, s*step)
		if err != nil {
			return nil, err
		}
		if acc, err = ev.Add(acc, rot); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// InnerSumRotations lists the rotation amounts InnerSum needs, for key
// generation.
func InnerSumRotations(step, count int) []int {
	var out []int
	for s := 1; s < count; s <<= 1 {
		out = append(out, s*step)
	}
	return out
}

// MulByConst multiplies every slot by a real constant without consuming
// a level when the constant is exactly representable at scale 1 — and
// with a level otherwise (encode at the working scale, multiply,
// rescale).
func (ev *Evaluator) MulByConst(ct *Ciphertext, v float64, enc *Encoder) (*Ciphertext, error) {
	vals := make([]complex128, ev.p.Slots())
	for i := range vals {
		vals[i] = complex(v, 0)
	}
	// Integer constants embed exactly at scale 1: no level cost.
	exact := v == math.Trunc(v) && math.Abs(v) < float64(ev.p.QPrimes[0])/2
	scale := ev.p.Scale
	if exact {
		scale = 1
	}
	pt, err := enc.EncodeAtLevel(vals, ct.Level, scale)
	if err != nil {
		return nil, err
	}
	out, err := ev.MulPlain(ct, pt)
	if err != nil || exact {
		return out, err
	}
	return ev.Rescale(out)
}
