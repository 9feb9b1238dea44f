package rns

import (
	"cross/internal/modarith"
	"cross/internal/simd"
)

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
		mulAddAVX512(acc[:k0], x, w, m.WordReducer())
	}
	for k := k0; k < len(acc); k++ {
		acc[k] = m.Reduce(acc[k] + x[k]*w[k])
	}
}

// MulAddLazy32 is MulAddLazy with w in 32-bit words, the form switching
// keys take when every prime is below 2^32: each word is widened as it
// is loaded, so the key streams at half the bytes.
func MulAddLazy32(m *modarith.Modulus, acc, x []uint64, w []uint32) {
	x, w = x[:len(acc)], w[:len(acc)]
	k0 := 0
	if vectorWord(m.Q) {
		k0 = len(acc) &^ 7
		mulAdd32AVX512(acc[:k0], x, w, nil)
	}
	for k := k0; k < len(acc); k++ {
		acc[k] += x[k] * uint64(w[k])
	}
}

// MulAddReduce32 is MulAddReduce with w in 32-bit words (see
// MulAddLazy32).
func MulAddReduce32(m *modarith.Modulus, acc, x []uint64, w []uint32) {
	x, w = x[:len(acc)], w[:len(acc)]
	k0 := 0
	if vectorWord(m.Q) {
		k0 = len(acc) &^ 7
		mulAdd32AVX512(acc[:k0], x, w, m.WordReducer())
	}
	for k := k0; k < len(acc); k++ {
		acc[k] = m.Reduce(acc[k] + x[k]*uint64(w[k]))
	}
}
