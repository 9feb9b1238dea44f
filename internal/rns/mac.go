package rns

import (
	"cross/internal/modarith"
	"cross/internal/simd"
)

// wordReducer holds the constants of the vector one-word reduction mod a
// prime p < 2^32. Writing v = h·2^32 + l gives v ≡ h·c + l with
// c = 2^32 mod p; h·c and l = l·1 are each reduced into [0, 2p) by a
// 32-bit Shoup multiply, and two corrections take their sum from
// [0, 4p) to [0, p), so the result equals Modulus.Reduce(v) for every
// 64-bit v. The assembly reads the fields in this order.
type wordReducer struct {
	p, twoP uint64
	c, cSho uint64 // 2^32 mod p and its Shoup quotient ⌊c·2^32/p⌋
	oneSho  uint64 // ⌊2^32/p⌋, the Shoup quotient of 1
	mask    uint64 // 2^32 − 1, which extracts l
}

func newWordReducer(p uint64) wordReducer {
	c := (1 << 32) % p
	return wordReducer{p: p, twoP: 2 * p, c: c, cSho: (c << 32) / p, oneSho: (1 << 32) / p, mask: 1<<32 - 1}
}

// vectorWord reports whether the AVX-512 multiply-accumulate serves
// residues mod p: VPMULUDQ multiplies 32-bit lanes, so p < 2^32.
func vectorWord(p uint64) bool { return simd.AVX512 && p < 1<<32 }

// MulAddLazy adds x[k]·w[k] to acc[k] for every k in one word, with no
// reduction. x and w hold residues mod m; the caller guarantees every
// sum stays below 2^64 (the key-switch inner product checks
// dnum·(q−1)² < 2^64 once per parameter set).
func MulAddLazy(m *modarith.Modulus, acc, x, w []uint64) {
	x, w = x[:len(acc)], w[:len(acc)]
	k0 := 0
	if vectorWord(m.Q) {
		k0 = len(acc) &^ 7
		mulAddAVX512(acc[:k0], x, w, nil)
	}
	for k := k0; k < len(acc); k++ {
		acc[k] += x[k] * w[k]
	}
}

// MulAddReduce sets acc[k] = (acc[k] + x[k]·w[k]) mod m for every k,
// under the same one-word guarantee as MulAddLazy: the sum is formed in
// one word and reduced once.
func MulAddReduce(m *modarith.Modulus, acc, x, w []uint64) {
	x, w = x[:len(acc)], w[:len(acc)]
	k0 := 0
	if vectorWord(m.Q) {
		k0 = len(acc) &^ 7
		r := newWordReducer(m.Q)
		mulAddAVX512(acc[:k0], x, w, &r)
	}
	for k := k0; k < len(acc); k++ {
		acc[k] = m.Reduce(acc[k] + x[k]*w[k])
	}
}
