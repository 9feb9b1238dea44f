// Package modarith implements the word-level modular arithmetic substrate
// that every other layer of the CROSS reproduction builds on.
//
// It provides:
//
//   - General-purpose modular arithmetic on uint64 moduli up to 62 bits
//     (Modulus): multiplication via 128-bit intermediates, exponentiation,
//     inversion, and 2N-th primitive roots of unity.
//   - The three reduction algorithms the paper ablates in Fig. 13:
//     Barrett reduction (Alg. 4), the optimized Montgomery reduction used
//     by CROSS on the TPU VPU (Alg. 1), and Shoup multiplication with a
//     precomputed quotient for known constants.
//   - NTT-friendly prime generation (q ≡ 1 mod 2N) used to construct RNS
//     bases for the CKKS parameter sets in Tab. IV.
//   - Vectorised modular kernels (VecModAdd/Sub/Mul etc., Tab. III) that
//     model the TPU VPU's element-wise arithmetic and that also serve as
//     the native CPU execution path, with AVX-512 assembly twins that
//     internal/simd selects on hosts that have it.
//
// Reduction outputs follow the paper's lazy-reduction convention: the
// Montgomery and Shoup kernels return values in [0, 2q) and callers
// perform a final conditional correction (Alg. 1 line 9, §G), while the
// Barrett kernels fully reduce to [0, q).
package modarith
