//go:build !amd64 || purego

package rns

import "cross/internal/modarith"

// Without the assembly, simd.AVX512 is false and these never run.

func step2RowAVX512(out []uint64, y [][]uint64, row []uint64, r *modarith.WordReducer) {
	panic("rns: no AVX-512 kernels in this build")
}

func mulAddAVX512(acc, x, w []uint64, r *modarith.WordReducer) {
	panic("rns: no AVX-512 kernels in this build")
}

func mulAdd32AVX512(acc, x []uint64, w []uint32, r *modarith.WordReducer) {
	panic("rns: no AVX-512 kernels in this build")
}
