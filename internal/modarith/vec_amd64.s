//go:build !purego

#include "textflag.h"

// AVX-512 element-wise modular kernels (DESIGN.md §11), one coefficient
// per 64-bit lane, eight per vector. Sums and differences are corrected
// with VPMINUQ: for s in [0, 2q), min(s, s − q) is s − q exactly when
// s ≥ q (below q the subtraction wraps past 2^63). Products use
// VPMULUDQ (32×32→64) and are reduced by a 32-bit Shoup multiply or by
// the one-word recipe of WordReducer. Only Z0–Z15 are used, so the
// closing VZEROUPPER clears every dirty upper half.

// LOAD_REDUCER broadcasts a *WordReducer: Z15 = q, Z14 = 2q, Z13 = c,
// Z12 = ⌊c·2^32/q⌋, Z11 = ⌊2^32/q⌋, Z10 = 2^32 − 1.
#define LOAD_REDUCER(R) \
	VPBROADCASTQ 0(R), Z15;  \
	VPBROADCASTQ 8(R), Z14;  \
	VPBROADCASTQ 16(R), Z13; \
	VPBROADCASTQ 24(R), Z12; \
	VPBROADCASTQ 32(R), Z11; \
	VPBROADCASTQ 40(R), Z10

// REDUCE sets V ← V mod q for any 64-bit V.
#define REDUCE(V, T1, T2) \
	VPSRLQ   $32, V, T1;  \
	VPMULUDQ Z12, T1, T2; \
	VPSRLQ   $32, T2, T2; \
	VPMULUDQ Z13, T1, T1; \
	VPMULUDQ Z15, T2, T2; \
	VPSUBQ   T2, T1, T1;  \
	VPMULUDQ Z11, V, T2;  \
	VPSRLQ   $32, T2, T2; \
	VPMULUDQ Z15, T2, T2; \
	VPANDQ   Z10, V, V;   \
	VPSUBQ   T2, V, V;    \
	VPADDQ   T1, V, V;    \
	VPSUBQ   Z14, V, T1;  \
	VPMINUQ  T1, V, V;    \
	VPSUBQ   Z15, V, T1;  \
	VPMINUQ  T1, V, V

// SHOUP sets V ← V·w mod q for V < 2^32, with Z15 = q, Z13 = w and
// Z12 = ⌊w·2^32/q⌋: the quotient estimate leaves V·w − ⌊V·Z12/2^32⌋·q
// in [0, 2q), and one correction finishes.
#define SHOUP(V, T) \
	VPMULUDQ Z12, V, T; \
	VPSRLQ   $32, T, T; \
	VPMULUDQ Z15, T, T; \
	VPMULUDQ Z13, V, V; \
	VPSUBQ   T, V, V;   \
	VPSUBQ   Z15, V, T; \
	VPMINUQ  T, V, V

// func addModAVX512(dst, a, b []uint64, q uint64)
TEXT ·addModAVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	VPBROADCASTQ q+72(FP), Z15
	SHRQ $3, DX
	JZ   addDone

addLoop:
	VMOVDQU64 (SI), Z0
	VPADDQ    (BX), Z0, Z0
	VPSUBQ    Z15, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  addLoop

addDone:
	VZEROUPPER
	RET

// func subModAVX512(dst, a, b []uint64, q uint64)
TEXT ·subModAVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	VPBROADCASTQ q+72(FP), Z15
	SHRQ $3, DX
	JZ   subDone

subLoop:
	VPADDQ    (SI), Z15, Z0
	VPSUBQ    (BX), Z0, Z0
	VPSUBQ    Z15, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  subLoop

subDone:
	VZEROUPPER
	RET

// func mulModAVX512(dst, a, b []uint64, r *WordReducer)
TEXT ·mulModAVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ r+72(FP), AX
	LOAD_REDUCER(AX)
	SHRQ $3, DX
	JZ   mulDone

mulLoop:
	VMOVDQU64 (SI), Z0
	VPMULUDQ  (BX), Z0, Z0
	REDUCE(Z0, Z1, Z2)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  mulLoop

mulDone:
	VZEROUPPER
	RET

// func scalarMulAVX512(dst, a []uint64, w, w32, q uint64)
TEXT ·scalarMulAVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	VPBROADCASTQ w+48(FP), Z13
	VPBROADCASTQ w32+56(FP), Z12
	VPBROADCASTQ q+64(FP), Z15
	SHRQ $3, DX
	JZ   scalarDone

scalarLoop:
	VMOVDQU64 (SI), Z0
	SHOUP(Z0, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  scalarLoop

scalarDone:
	VZEROUPPER
	RET

// func subScaleAVX512(dst, a, b []uint64, w, w32, q uint64)
TEXT ·subScaleAVX512(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	VPBROADCASTQ w+72(FP), Z13
	VPBROADCASTQ w32+80(FP), Z12
	VPBROADCASTQ q+88(FP), Z15
	SHRQ $3, DX
	JZ   subScaleDone

subScaleLoop:
	VPADDQ    (SI), Z15, Z0
	VPSUBQ    (BX), Z0, Z0
	SHOUP(Z0, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  subScaleLoop

subScaleDone:
	VZEROUPPER
	RET

// func centerAVX512(dst, a []uint64, p, half uint64, r *WordReducer)
//
// Lanes with v > half (mask K1) take u = p − v, the others u = v; u is
// reduced mod q and the K1 lanes negated, min(q − u, −u) mapping u = 0
// to 0.
TEXT ·centerAVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	VPBROADCASTQ p+48(FP), Z9
	VPBROADCASTQ half+56(FP), Z8
	MOVQ r+64(FP), AX
	LOAD_REDUCER(AX)
	SHRQ $3, DX
	JZ   centerDone

centerLoop:
	VMOVDQU64 (SI), Z0
	VPCMPUQ   $6, Z8, Z0, K1
	VPSUBQ    Z0, Z9, K1, Z0
	REDUCE(Z0, Z1, Z2)
	VPSUBQ    Z0, Z15, Z1
	VPSUBQ    Z15, Z1, Z2
	VPMINUQ   Z2, Z1, Z1
	VMOVDQU64 Z1, K1, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  centerLoop

centerDone:
	VZEROUPPER
	RET
