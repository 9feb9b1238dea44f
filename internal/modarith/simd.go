package modarith

import "cross/internal/simd"

// WordReducer holds the constants of the vector one-word reduction mod a
// prime q < 2^32. Writing v = h·2^32 + l gives v ≡ h·c + l with
// c = 2^32 mod q; h·c and l = l·1 are each reduced into [0, 2q) by a
// 32-bit Shoup multiply, and two corrections take their sum from
// [0, 4q) to [0, q), so the result equals Modulus.Reduce(v) for every
// 64-bit v. The assembly kernels here and in internal/rns read the
// fields in this order.
type WordReducer struct {
	q, twoQ   uint64
	c, cShoup uint64 // 2^32 mod q and its Shoup quotient ⌊c·2^32/q⌋
	oneShoup  uint64 // ⌊2^32/q⌋, the Shoup quotient of 1
	mask      uint64 // 2^32 − 1, which extracts l
}

func newWordReducer(q uint64) WordReducer {
	c := (1 << 32) % q
	return WordReducer{q: q, twoQ: 2 * q, c: c, cShoup: (c << 32) / q, oneShoup: (1 << 32) / q, mask: 1<<32 - 1}
}

// WordReducer returns the modulus's one-word reduction constants, for
// AVX-512 kernels outside this package. They are valid only for
// q < 2^32.
func (m *Modulus) WordReducer() *WordReducer { return &m.word }

// vectorWord reports whether the AVX-512 kernels built on 32×32-bit
// lane multiplies (VPMULUDQ) serve residues mod q: every residue and
// Shoup quotient must fit 32 bits, so q < 2^32.
func (m *Modulus) vectorWord() bool { return simd.AVX512 && m.Q < 1<<32 }

// vectorSubScale reports whether the subtract-and-scale kernel serves
// q: its multiplicand a − b + q lies in [1, 2q), which one 32-bit lane
// holds only when q < 2^31.
func (m *Modulus) vectorSubScale() bool { return simd.AVX512 && m.Q < 1<<31 }

// vectorPrefix returns the length of the prefix of an n-element vector
// that the 8-lane kernels cover when on is set, and 0 otherwise; the
// pure-Go loops finish the tail.
func vectorPrefix(on bool, n int) int {
	if !on {
		return 0
	}
	return n &^ 7
}
