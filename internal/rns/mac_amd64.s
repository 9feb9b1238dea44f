//go:build !purego

#include "textflag.h"

// AVX-512 one-word multiply-accumulate (DESIGN.md §11). Products of two
// residues below 2^32 come from VPMULUDQ and sum in 64-bit lanes; the
// caller guarantees the sums fit one word. REDUCE is the
// modarith.WordReducer recipe, with the constants broadcast as Z15 = p,
// Z14 = 2p, Z13 = c, Z12 = ⌊c·2^32/p⌋, Z11 = ⌊2^32/p⌋ and
// Z10 = 2^32 − 1. Only Z0–Z15 are used, so the closing VZEROUPPER
// clears every dirty upper half.

#define LOAD_REDUCER(R) \
	VPBROADCASTQ 0(R), Z15;  \
	VPBROADCASTQ 8(R), Z14;  \
	VPBROADCASTQ 16(R), Z13; \
	VPBROADCASTQ 24(R), Z12; \
	VPBROADCASTQ 32(R), Z11; \
	VPBROADCASTQ 40(R), Z10

// REDUCE sets V ← V mod p.
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

// func step2RowAVX512(out []uint64, y [][]uint64, row []uint64, r *wordReducer)
TEXT ·step2RowAVX512(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), DX
	MOVQ y_base+24(FP), SI
	MOVQ row_base+48(FP), BX
	MOVQ row_len+56(FP), CX
	MOVQ r+72(FP), AX
	LOAD_REDUCER(AX)
	XORQ R8, R8

	// Tiles of 32 coefficients: four accumulators gather the L products
	// while the row loop streams each source limb.
tile32:
	CMPQ DX, $32
	JLT  tile8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ SI, R9
	MOVQ BX, R10
	MOVQ CX, R11

rows32:
	MOVQ (R9), R12
	VPBROADCASTQ (R10), Z4
	VPMULUDQ (R12)(R8*1), Z4, Z5
	VPMULUDQ 64(R12)(R8*1), Z4, Z6
	VPMULUDQ 128(R12)(R8*1), Z4, Z7
	VPMULUDQ 192(R12)(R8*1), Z4, Z8
	VPADDQ Z5, Z0, Z0
	VPADDQ Z6, Z1, Z1
	VPADDQ Z7, Z2, Z2
	VPADDQ Z8, Z3, Z3
	ADDQ $24, R9
	ADDQ $8, R10
	DECQ R11
	JNZ  rows32
	REDUCE(Z0, Z5, Z6)
	REDUCE(Z1, Z7, Z8)
	REDUCE(Z2, Z5, Z6)
	REDUCE(Z3, Z7, Z8)
	VMOVDQU64 Z0, (DI)(R8*1)
	VMOVDQU64 Z1, 64(DI)(R8*1)
	VMOVDQU64 Z2, 128(DI)(R8*1)
	VMOVDQU64 Z3, 192(DI)(R8*1)
	ADDQ $256, R8
	SUBQ $32, DX
	JMP  tile32

tile8:
	CMPQ DX, $8
	JLT  done
	VPXORQ Z0, Z0, Z0
	MOVQ SI, R9
	MOVQ BX, R10
	MOVQ CX, R11

rows8:
	MOVQ (R9), R12
	VPBROADCASTQ (R10), Z4
	VPMULUDQ (R12)(R8*1), Z4, Z5
	VPADDQ Z5, Z0, Z0
	ADDQ $24, R9
	ADDQ $8, R10
	DECQ R11
	JNZ  rows8
	REDUCE(Z0, Z5, Z6)
	VMOVDQU64 Z0, (DI)(R8*1)
	ADDQ $64, R8
	SUBQ $8, DX
	JMP  tile8

done:
	VZEROUPPER
	RET

// func mulAddAVX512(acc, x, w []uint64, r *wordReducer)
TEXT ·mulAddAVX512(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), DX
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), BX
	MOVQ r+72(FP), AX
	SHRQ $3, DX
	JZ   macDone
	TESTQ AX, AX
	JZ   lazy
	LOAD_REDUCER(AX)

reduced:
	VMOVDQU64 (SI), Z0
	VPMULUDQ (BX), Z0, Z0
	VPADDQ (DI), Z0, Z0
	REDUCE(Z0, Z1, Z2)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  reduced
	JMP  macDone

lazy:
	VMOVDQU64 (SI), Z0
	VPMULUDQ (BX), Z0, Z0
	VPADDQ (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  lazy

macDone:
	VZEROUPPER
	RET

// func mulAdd32AVX512(acc, x []uint64, w []uint32, r *wordReducer)
// VPMOVZXDQ widens eight 32-bit words of w into the 64-bit lanes
// VPMULUDQ reads; the rest is mulAddAVX512.
TEXT ·mulAdd32AVX512(SB), NOSPLIT, $0-80
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), DX
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), BX
	MOVQ r+72(FP), AX
	SHRQ $3, DX
	JZ   mac32Done
	TESTQ AX, AX
	JZ   lazy32
	LOAD_REDUCER(AX)

reduced32:
	VPMOVZXDQ (BX), Z0
	VPMULUDQ (SI), Z0, Z0
	VPADDQ (DI), Z0, Z0
	REDUCE(Z0, Z1, Z2)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $32, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  reduced32
	JMP  mac32Done

lazy32:
	VPMOVZXDQ (BX), Z0
	VPMULUDQ (SI), Z0, Z0
	VPADDQ (DI), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $32, BX
	ADDQ $64, DI
	DECQ DX
	JNZ  lazy32

mac32Done:
	VZEROUPPER
	RET
