//go:build !amd64 || purego

package ring

// Without the assembly, simd.AVX512 is false and these never run.

func nttAVX512(a, psi, psiSho []uint64, q uint64) { panic("ring: no AVX-512 kernels in this build") }

func inttAVX512(a, psiInv, psiInvSho []uint64, q, nInv, nInvSho, nInvPsi, nInvPsiSho uint64) {
	panic("ring: no AVX-512 kernels in this build")
}
