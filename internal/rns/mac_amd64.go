//go:build !purego

package rns

import "cross/internal/modarith"

// step2RowAVX512 sets out[k] = (Σ_i y[i][k]·row[i]) mod r's prime for
// every k < len(out), which must be a multiple of 8, with each sum in
// one word and every input below 2^32.
//
//go:noescape
func step2RowAVX512(out []uint64, y [][]uint64, row []uint64, r *modarith.WordReducer)

// mulAddAVX512 adds x[k]·w[k] to acc[k] for every k < len(acc), a
// multiple of 8, and reduces the sums mod r's prime unless r is nil.
//
//go:noescape
func mulAddAVX512(acc, x, w []uint64, r *modarith.WordReducer)

// mulAdd32AVX512 is mulAddAVX512 with w in 32-bit words, zero-extended
// to 64-bit lanes as they are loaded.
//
//go:noescape
func mulAdd32AVX512(acc, x []uint64, w []uint32, r *modarith.WordReducer)
