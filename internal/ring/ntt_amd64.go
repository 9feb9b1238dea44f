//go:build !purego

package ring

// nttAVX512 is NTTInPlace in AVX-512 assembly for len(a) ≥ 16 and
// q < 2^30; psi and psiSho are the table's psiRev and psiRevSho rows.
//
//go:noescape
func nttAVX512(a, psi, psiSho []uint64, q uint64)

// inttAVX512 is INTTInPlace in AVX-512 assembly under the same bounds;
// psiInv and psiInvSho are the psiInvRev and psiInvRevSho rows, and the
// last four arguments the closing pass's N⁻¹ and ψ^-brv(1)·N⁻¹ with
// their Shoup quotients.
//
//go:noescape
func inttAVX512(a, psiInv, psiInvSho []uint64, q, nInv, nInvSho, nInvPsi, nInvPsiSho uint64)
