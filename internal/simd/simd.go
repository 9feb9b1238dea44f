// Package simd reports which kernel backend the host runs. The ring,
// rns and ckks hot loops have AVX-512 assembly twins of their pure-Go
// kernels (DESIGN.md §11); AVX512 picks between them.
package simd

// AVX512 is set at init when the CPU has AVX-512F and the OS saves the
// ZMM and opmask state, so the assembly kernels may run. It is false
// under the purego build tag and off amd64. Only tests change it, to
// run the assembly and pure-Go kernels side by side in one binary.
var AVX512 = hasAVX512()

// Kernels names the backend AVX512 selects: "avx512" or "go".
func Kernels() string {
	if AVX512 {
		return "avx512"
	}
	return "go"
}
