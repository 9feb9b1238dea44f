//go:build !amd64 || purego

package modarith

// Without the assembly, simd.AVX512 is false and these never run.

func addModAVX512(dst, a, b []uint64, q uint64) { panic("modarith: no AVX-512 kernels in this build") }

func subModAVX512(dst, a, b []uint64, q uint64) { panic("modarith: no AVX-512 kernels in this build") }

func mulModAVX512(dst, a, b []uint64, r *WordReducer) {
	panic("modarith: no AVX-512 kernels in this build")
}

func scalarMulAVX512(dst, a []uint64, w, w32, q uint64) {
	panic("modarith: no AVX-512 kernels in this build")
}

func subScaleAVX512(dst, a, b []uint64, w, w32, q uint64) {
	panic("modarith: no AVX-512 kernels in this build")
}

func centerAVX512(dst, a []uint64, p, half uint64, r *WordReducer) {
	panic("modarith: no AVX-512 kernels in this build")
}
