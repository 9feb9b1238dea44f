package modarith

import (
	"math/bits"

	"cross/internal/simd"
)

// Vectorised modular kernels (Tab. III primitives). These are the
// element-wise operations that the paper profiles as VecModAdd,
// VecModSub, and VecModMul (Fig. 14) and that CROSS maps to the TPU VPU.
// On the CPU they double as the native execution path; the TPU simulator
// invokes them for functional results while charging VPU cycles.
//
// Unless stated otherwise, inputs are in [0, q), outputs in [0, q), and
// dst may alias a or b. All kernels panic if the slice lengths differ —
// a length mismatch is a compiler bug, not a runtime condition.
//
// Add, sub, the Barrett multiply, the scalar Shoup multiply and the
// fused subtract-and-scale and centred-lift kernels have AVX-512 twins
// (vec_amd64.s), each gated on simd.AVX512 and its own prime bound; the
// twins cover the 8-lane prefix and the loops here the tail, with
// identical outputs.

func checkLen3(dst, a, b []uint64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("modarith: vector length mismatch")
	}
}

func checkLen2(dst, a []uint64) {
	if len(dst) != len(a) {
		panic("modarith: vector length mismatch")
	}
}

// VecAddMod computes dst[i] = (a[i] + b[i]) mod q.
func (m *Modulus) VecAddMod(dst, a, b []uint64) {
	checkLen3(dst, a, b)
	q := m.Q
	i := vectorPrefix(simd.AVX512, len(dst))
	if i > 0 {
		addModAVX512(dst[:i], a, b, q)
	}
	for ; i <= len(dst)-4; i += 4 {
		s0 := a[i] + b[i]
		s1 := a[i+1] + b[i+1]
		s2 := a[i+2] + b[i+2]
		s3 := a[i+3] + b[i+3]
		if s0 >= q {
			s0 -= q
		}
		if s1 >= q {
			s1 -= q
		}
		if s2 >= q {
			s2 -= q
		}
		if s3 >= q {
			s3 -= q
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		s := a[i] + b[i]
		if s >= q {
			s -= q
		}
		dst[i] = s
	}
}

// VecSubMod computes dst[i] = (a[i] - b[i]) mod q.
func (m *Modulus) VecSubMod(dst, a, b []uint64) {
	checkLen3(dst, a, b)
	q := m.Q
	i := vectorPrefix(simd.AVX512, len(dst))
	if i > 0 {
		subModAVX512(dst[:i], a, b, q)
	}
	for ; i <= len(dst)-4; i += 4 {
		d0 := a[i] + q - b[i]
		d1 := a[i+1] + q - b[i+1]
		d2 := a[i+2] + q - b[i+2]
		d3 := a[i+3] + q - b[i+3]
		if d0 >= q {
			d0 -= q
		}
		if d1 >= q {
			d1 -= q
		}
		if d2 >= q {
			d2 -= q
		}
		if d3 >= q {
			d3 -= q
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		d := a[i] + q - b[i]
		if d >= q {
			d -= q
		}
		dst[i] = d
	}
}

// VecNegMod computes dst[i] = -a[i] mod q.
func (m *Modulus) VecNegMod(dst, a []uint64) {
	checkLen2(dst, a)
	q := m.Q
	for i := range dst {
		if a[i] == 0 {
			dst[i] = 0
		} else {
			dst[i] = q - a[i]
		}
	}
}

// VecMulMod computes dst[i] = a[i]·b[i] mod q with the requested
// reduction algorithm (Fig. 13a ablation). Shoup requires per-element
// precomputed quotients and is therefore routed through
// VecMulModShoup; passing Shoup here falls back to Barrett.
func (m *Modulus) VecMulMod(dst, a, b []uint64, alg ReduceAlgorithm) {
	checkLen3(dst, a, b)
	switch alg {
	case Montgomery:
		m.vecMulMont(dst, a, b)
	default:
		m.vecMulBarrett(dst, a, b)
	}
}

func (m *Modulus) vecMulBarrett(dst, a, b []uint64) {
	i := vectorPrefix(m.vectorWord(), len(dst))
	if i > 0 {
		mulModAVX512(dst[:i], a, b, &m.word)
	}
	for ; i < len(dst); i++ {
		dst[i] = m.BarrettMul(a[i], b[i])
	}
}

// vecMulMont multiplies via REDC: one conversion of a into the
// Montgomery domain and one lazy REDC per element, then a final
// correction — the two-multiplication pattern of §V-F2.
func (m *Modulus) vecMulMont(dst, a, b []uint64) {
	for i := range dst {
		am := m.ToMontgomery(a[i])
		dst[i] = m.MontgomeryMulFull(b[i], am)
	}
}

// VecMulModShoup computes dst[i] = a[i]·w[i] mod q where w is a
// compile-time-known vector with precomputed Shoup quotients wShoup.
// Internally it runs the lazy kernel and one deferred correction pass;
// the output is fully reduced to [0, q), bit-identical to
// VecMulModShoupStrict.
func (m *Modulus) VecMulModShoup(dst, a, w, wShoup []uint64) {
	checkLen3(dst, a, w)
	if len(w) != len(wShoup) {
		panic("modarith: shoup quotient length mismatch")
	}
	q := m.Q
	i := 0
	for ; i <= len(dst)-4; i += 4 {
		h0, _ := bits.Mul64(a[i], wShoup[i])
		h1, _ := bits.Mul64(a[i+1], wShoup[i+1])
		h2, _ := bits.Mul64(a[i+2], wShoup[i+2])
		h3, _ := bits.Mul64(a[i+3], wShoup[i+3])
		r0 := a[i]*w[i] - h0*q
		r1 := a[i+1]*w[i+1] - h1*q
		r2 := a[i+2]*w[i+2] - h2*q
		r3 := a[i+3]*w[i+3] - h3*q
		if r0 >= q {
			r0 -= q
		}
		if r1 >= q {
			r1 -= q
		}
		if r2 >= q {
			r2 -= q
		}
		if r3 >= q {
			r3 -= q
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = r0, r1, r2, r3
	}
	for ; i < len(dst); i++ {
		dst[i] = m.ShoupMulFull(a[i], w[i], wShoup[i])
	}
}

// VecMulModShoupStrict is the retained strict-reduction reference for
// VecMulModShoup: one fully-corrected Shoup multiplication per element,
// no unrolling, no laziness. It is the oracle the table-driven and
// fuzz suites compare the lazy kernels against.
func (m *Modulus) VecMulModShoupStrict(dst, a, w, wShoup []uint64) {
	checkLen3(dst, a, w)
	if len(w) != len(wShoup) {
		panic("modarith: shoup quotient length mismatch")
	}
	for i := range dst {
		dst[i] = m.ShoupMulFull(a[i], w[i], wShoup[i])
	}
}

// VecScalarMulMod computes dst[i] = a[i]·c mod q for a runtime scalar c.
func (m *Modulus) VecScalarMulMod(dst, a []uint64, c uint64) {
	w := c % m.Q
	m.VecScalarMulModShoup(dst, a, w, m.ShoupPrecompute(w))
}

// VecScalarMulModShoup computes dst[i] = a[i]·w mod q for a constant
// scalar w in [0, q) with precomputed Shoup quotient ws. The loop is
// 4×-unrolled with one deferred correction per element; the output is
// fully reduced. dst may alias a.
func (m *Modulus) VecScalarMulModShoup(dst, a []uint64, w, ws uint64) {
	checkLen2(dst, a)
	q := m.Q
	i := vectorPrefix(m.vectorWord(), len(dst))
	if i > 0 {
		scalarMulAVX512(dst[:i], a, w, ws>>32, q)
	}
	for ; i <= len(dst)-4; i += 4 {
		h0, _ := bits.Mul64(a[i], ws)
		h1, _ := bits.Mul64(a[i+1], ws)
		h2, _ := bits.Mul64(a[i+2], ws)
		h3, _ := bits.Mul64(a[i+3], ws)
		r0 := a[i]*w - h0*q
		r1 := a[i+1]*w - h1*q
		r2 := a[i+2]*w - h2*q
		r3 := a[i+3]*w - h3*q
		if r0 >= q {
			r0 -= q
		}
		if r1 >= q {
			r1 -= q
		}
		if r2 >= q {
			r2 -= q
		}
		if r3 >= q {
			r3 -= q
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = r0, r1, r2, r3
	}
	for ; i < len(dst); i++ {
		dst[i] = m.ShoupMulFull(a[i], w, ws)
	}
}

// VecSubScalarMulModShoup computes dst[i] = (a[i] − b[i])·w mod q for a
// constant scalar w in [0, q) with precomputed Shoup quotient ws: the
// subtract-and-scale that closes Rescale and ModDown. dst may alias a
// or b.
func (m *Modulus) VecSubScalarMulModShoup(dst, a, b []uint64, w, ws uint64) {
	checkLen3(dst, a, b)
	i := vectorPrefix(m.vectorSubScale(), len(dst))
	if i > 0 {
		subScaleAVX512(dst[:i], a, b, w, ws>>32, m.Q)
	}
	for ; i < len(dst); i++ {
		dst[i] = m.ShoupMulFull(m.SubMod(a[i], b[i]), w, ws)
	}
}

// VecReduceCentered sets dst[i] to the centred lift of a[i] mod p,
// reduced mod q: a[i] for a[i] ≤ ⌊p/2⌋, otherwise a[i] − p. a holds
// residues in [0, p); Rescale uses it to carry the top limb into the
// others. dst may alias a.
func (m *Modulus) VecReduceCentered(dst, a []uint64, p uint64) {
	checkLen2(dst, a)
	half := p >> 1
	i := vectorPrefix(m.vectorWord(), len(dst))
	if i > 0 {
		centerAVX512(dst[:i], a, p, half, &m.word)
	}
	for ; i < len(dst); i++ {
		if v := a[i]; v > half {
			dst[i] = m.NegMod(m.Reduce(p - v))
		} else {
			dst[i] = m.Reduce(v)
		}
	}
}

// VecScalarMulAddMod computes dst[i] = (dst[i] + a[i]·c) mod q.
func (m *Modulus) VecScalarMulAddMod(dst, a []uint64, c uint64) {
	checkLen2(dst, a)
	w := c % m.Q
	ws := m.ShoupPrecompute(w)
	q := m.Q
	for i := range dst {
		s := dst[i] + m.ShoupMulFull(a[i], w, ws)
		if s >= q {
			s -= q
		}
		dst[i] = s
	}
}

// VecMulAddMod computes dst[i] = (dst[i] + a[i]·b[i]) mod q. Where the
// Barrett multiply has its AVX-512 twin, the products go through a
// stack buffer one block at a time and the vector add folds them in.
func (m *Modulus) VecMulAddMod(dst, a, b []uint64) {
	checkLen3(dst, a, b)
	q := m.Q
	n := vectorPrefix(m.vectorWord(), len(dst))
	var buf [256]uint64
	for k := 0; k < n; k += len(buf) {
		e := min(k+len(buf), n)
		mulModAVX512(buf[:e-k], a[k:e], b[k:e], &m.word)
		addModAVX512(dst[k:e], dst[k:e], buf[:e-k], q)
	}
	for i := n; i < len(dst); i++ {
		s := dst[i] + m.BarrettMul(a[i], b[i])
		if s >= q {
			s -= q
		}
		dst[i] = s
	}
}

// VecReduce computes dst[i] = a[i] mod q for arbitrary uint64 inputs.
func (m *Modulus) VecReduce(dst, a []uint64) {
	checkLen2(dst, a)
	for i := range dst {
		dst[i] = m.Reduce(a[i])
	}
}

// VecReduceSigned computes dst[i] = a[i] mod q in [0, q) without a
// branch on the sign. bound must be at least every |a[i]|. When it is
// below q, one masked add embeds each element: a negative a[i] read as
// unsigned is a[i] + 2^64, which adding q wraps to a[i] + q. Otherwise
// the unsigned reading is reduced first and 2^64 mod q (MontR) taken
// off the negative elements, with one masked add of q undoing the
// borrow.
func (m *Modulus) VecReduceSigned(dst []uint64, a []int64, bound uint64) {
	if len(dst) != len(a) {
		panic("modarith: vector length mismatch")
	}
	q := m.Q
	if bound < q {
		for i, v := range a {
			dst[i] = uint64(v) + q&uint64(v>>63)
		}
		return
	}
	for i, v := range a {
		r, borrow := bits.Sub64(m.Reduce(uint64(v)), m.MontR&uint64(v>>63), 0)
		dst[i] = r + q&-borrow
	}
}

// VecToMontgomery maps a vector into the Montgomery domain.
func (m *Modulus) VecToMontgomery(dst, a []uint64) {
	checkLen2(dst, a)
	for i := range dst {
		dst[i] = m.ToMontgomery(a[i])
	}
}

// VecFromMontgomery maps a vector out of the Montgomery domain.
func (m *Modulus) VecFromMontgomery(dst, a []uint64) {
	checkLen2(dst, a)
	for i := range dst {
		dst[i] = m.FromMontgomery(a[i])
	}
}

// ShoupPrecomputeVec returns the Shoup quotients for a constant vector.
func (m *Modulus) ShoupPrecomputeVec(w []uint64) []uint64 {
	out := make([]uint64, len(w))
	for i, x := range w {
		out[i] = m.ShoupPrecompute(x)
	}
	return out
}
