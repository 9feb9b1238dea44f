package ring

import "fmt"

// Automorphisms of R_Q: τ_t : a(X) ↦ a(X^t) for odd t (invertible mod
// 2N). HE rotations and conjugation are built from these maps (§III-D2).
// The paper profiles automorphism as the worst-case permutation kernel
// on TPUs — the one reordering MAT cannot always embed into computation
// (Fig. 12: 21% of Rotate latency).

// checkGaloisElement validates that t is a legal automorphism exponent.
func (r *Ring) checkGaloisElement(t uint64) error {
	if t%2 == 0 || t >= uint64(2*r.N) {
		return fmt.Errorf("ring: galois element %d must be odd and < 2N=%d", t, 2*r.N)
	}
	return nil
}

// AutomorphismCoeff applies τ_t in the coefficient domain:
// coefficient a_i moves to slot (t·i mod 2N), negated when the exponent
// wraps past N (since X^N = −1). out must not alias in.
func (r *Ring) AutomorphismCoeff(in, out *Poly, t uint64) error {
	if err := r.checkGaloisElement(t); err != nil {
		return err
	}
	n := uint64(r.N)
	twoN := 2 * n
	for l := 0; l <= in.Level() && l <= out.Level(); l++ {
		m := r.Moduli[l]
		src, dst := in.Coeffs[l], out.Coeffs[l]
		for i := uint64(0); i < n; i++ {
			e := (i * t) % twoN
			if e < n {
				dst[e] = src[i]
			} else {
				dst[e-n] = m.NegMod(src[i])
			}
		}
	}
	return nil
}

// AutomorphismNTTIndex returns the slot permutation implementing τ_t
// on bit-reverse-ordered NTT vectors (the output convention of
// NTTInPlace): out[k] = in[index[k]]. Tables are built once per galois
// element and cached in the ring's arena (shared across AtLevel and
// WithParallelism views), so repeated calls — one per key-switch hop —
// allocate nothing. The returned slice is the live cache entry and
// must not be mutated.
//
// Derivation: array slot p holds the evaluation at root ψ^(2·brv(p)+1).
// τ_t maps the evaluation at exponent e to the evaluation at t·e mod 2N,
// so slot p of the output must read the input slot holding exponent
// t·(2·brv(p)+1).
func (r *Ring) AutomorphismNTTIndex(t uint64) ([]int, error) {
	if err := r.checkGaloisElement(t); err != nil {
		return nil, err
	}
	if cached, ok := r.scratch.auto.Load(t); ok {
		return cached.([]int), nil
	}
	n := uint64(r.N)
	twoN := 2 * n
	logN := r.LogN
	index := make([]int, n)
	for p := uint64(0); p < n; p++ {
		j := bitReverse(p, logN)    // natural evaluation index of slot p
		e := (t * (2*j + 1)) % twoN // source exponent
		jSrc := (e - 1) / 2         // natural index holding that exponent
		index[p] = int(bitReverse(jSrc, logN))
	}
	actual, _ := r.scratch.auto.LoadOrStore(t, index)
	return actual.([]int), nil
}

// AutomorphismNTT applies τ_t to a polynomial in the NTT domain using a
// precomputed index from AutomorphismNTTIndex. out must not alias in.
func (r *Ring) AutomorphismNTT(in, out *Poly, index []int) {
	for l := 0; l <= in.Level() && l <= out.Level(); l++ {
		r.AutomorphismNTTLimb(in.Coeffs[l], out.Coeffs[l], index)
	}
}

// AutomorphismNTTLimb is AutomorphismNTT for one limb, so callers can
// spread the limbs over workers. out must not alias in.
func (r *Ring) AutomorphismNTTLimb(in, out []uint64, index []int) {
	for k := range out {
		out[k] = in[index[k]]
	}
}

// GaloisElementForRotation returns the automorphism exponent that
// implements a rotation by k slots of the CKKS canonical embedding:
// g = 5^k mod 2N (5 generates the subgroup acting on the slot order).
func (r *Ring) GaloisElementForRotation(k int) uint64 {
	twoN := uint64(2 * r.N)
	g := uint64(1)
	step := uint64(5)
	// Normalise k to [0, N/2): rotations are cyclic in the half-size
	// slot group.
	halfSlots := r.N / 2
	kk := ((k % halfSlots) + halfSlots) % halfSlots
	for i := 0; i < kk; i++ {
		g = (g * step) % twoN
	}
	return g
}

// GaloisElementForConjugation returns 2N−1, the exponent implementing
// complex conjugation of the CKKS slots.
func (r *Ring) GaloisElementForConjugation() uint64 {
	return uint64(2*r.N) - 1
}
