package rns

import (
	"cmp"
	"math/big"
	"math/bits"
	"slices"
)

// garner holds the constants of the word-size centred CRT
// (DecodeCenteredFloat), built on a basis's first decode. Its digits
// run over the limbs in ascending order of prime, so that each digit is
// already a residue of every prime it is later subtracted mod.
type garner struct {
	// order lists the limbs by ascending prime, and q their primes.
	order []int
	q     []uint64
	// inv[i][j] = q[j]⁻¹ mod q[i] for j < i, and invShoup[i][j] its
	// Shoup quotient: the scale of Garner's step for digit j on limb
	// order[i].
	inv, invShoup [][]uint64
	// half holds the mixed-radix digits of ⌊Q/2⌋, least significant
	// first: the threshold of the centred lift.
	half []uint64
}

func newGarner(b *Basis) *garner {
	l := len(b.Moduli)
	g := &garner{order: make([]int, l), q: make([]uint64, l),
		inv: make([][]uint64, l), invShoup: make([][]uint64, l), half: make([]uint64, l)}
	for i := range g.order {
		g.order[i] = i
	}
	slices.SortFunc(g.order, func(i, j int) int { return cmp.Compare(b.Moduli[i].Q, b.Moduli[j].Q) })
	t := new(big.Int).Rsh(b.Q, 1)
	d := new(big.Int)
	for i, li := range g.order {
		mi := b.Moduli[li]
		g.q[i] = mi.Q
		g.inv[i] = make([]uint64, i)
		g.invShoup[i] = make([]uint64, i)
		for j, qj := range g.q[:i] {
			g.inv[i][j] = mi.InvMod(qj)
			g.invShoup[i][j] = mi.ShoupPrecompute(g.inv[i][j])
		}
		t.DivMod(t, new(big.Int).SetUint64(mi.Q), d)
		g.half[i] = d.Uint64()
	}
	return g
}

// DecodeCenteredFloat sets dst[k] to DecodeCentered of coefficient k,
// whose residues are res[i][k] ∈ [0, q_i), converted to the nearest
// float64 (ties to even, as big.Float rounds). It overwrites res with
// the coefficients' mixed-radix digits.
//
// It is Garner's CRT in machine words. With the primes in ascending
// order p_0 < p_1 < …, the digits v_j of x = Σ_j v_j·(p_0⋯p_{j−1}) come
// limb by limb over the whole vector: v_j is what limb j holds once
// every lower digit has been taken out by the step
// t ← (t − v_j)·p_j⁻¹ mod p_i on each higher limb i. The sign of the
// centred value is a top-down digit comparison with ⌊Q/2⌋, and its
// magnitude, x or Q − x, folds into one uint64 by Horner's rule; only a
// coefficient whose magnitude overflows a word is rebuilt with big.Int.
func (b *Basis) DecodeCenteredFloat(dst []float64, res [][]uint64) {
	if len(res) != len(b.Moduli) {
		panic("rns: residue count mismatch")
	}
	for _, r := range res {
		if len(r) != len(dst) {
			panic("rns: vector length mismatch")
		}
	}
	b.garnerOnce.Do(func() { b.garner = newGarner(b) })
	g := b.garner
	digits := make([][]uint64, len(res))
	for i, li := range g.order {
		digits[i] = res[li]
	}
	for j, v := range digits {
		for i := j + 1; i < len(digits); i++ {
			b.Moduli[g.order[i]].VecSubScalarMulModShoup(digits[i], digits[i], v, g.inv[i][j], g.invShoup[i][j])
		}
	}

	top := len(digits) - 1
	for k := range dst {
		// x ≥ ⌊Q/2⌋ lifts to x − Q; equality falls through as true.
		neg := true
		for j := top; j >= 0; j-- {
			if v, h := digits[j][k], g.half[j]; v != h {
				neg = v > h
				break
			}
		}
		// For negative x, Q − x = (Q − 1 − x) + 1, and Q − 1 − x has the
		// digits p_j − 1 − v_j: no borrow crosses a digit.
		var mag, hi, carry uint64
		for j := top; j >= 0 && hi|carry == 0; j-- {
			q, v := g.q[j], digits[j][k]
			if neg {
				v = q - 1 - v
			}
			hi, mag = bits.Mul64(mag, q)
			mag, carry = bits.Add64(mag, v, 0)
		}
		if neg && hi|carry == 0 {
			mag, carry = bits.Add64(mag, 1, 0)
		}
		switch {
		case hi|carry != 0:
			dst[k] = g.wide(b.Q, digits, k, neg)
		case neg:
			dst[k] = -float64(mag)
		default:
			dst[k] = float64(mag)
		}
	}
}

// wide is DecodeCenteredFloat's exact path for coefficient k: it
// rebuilds x from its mixed-radix digits with big.Int, lifts it to
// x − Q when neg, and rounds to the nearest float64.
func (g *garner) wide(bigQ *big.Int, digits [][]uint64, k int, neg bool) float64 {
	x, t := new(big.Int), new(big.Int)
	for j := len(digits) - 1; j >= 0; j-- {
		x.Mul(x, t.SetUint64(g.q[j]))
		x.Add(x, t.SetUint64(digits[j][k]))
	}
	if neg {
		x.Sub(x, bigQ)
	}
	f, _ := new(big.Float).SetInt(x).Float64()
	return f
}
