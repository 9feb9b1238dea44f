//go:build !purego

#include "textflag.h"

// AVX-512 forward and inverse negacyclic NTT (DESIGN.md §11). Each
// 64-bit lane holds one coefficient; products use VPMULUDQ (32×32→64)
// with the 32-bit Shoup quotient ⌊w·2^32/q⌋ = psiSho >> 32, which is
// exact while every multiplied value stays below 2^32. With q < 2^30
// the lazy bound 4q does, so the transforms keep the pure-Go kernels'
// bounds: [0, 4q) between forward stages, [0, 2q) between inverse
// stages, and fully reduced outputs. Z15 holds q and Z14 2q throughout.

// Lane indices for VPERMQ (twiddle spreading) and VPERMT2Q (two-table
// shuffles; indices 8–15 select the second table).
DATA spread4<>+0(SB)/8, $0
DATA spread4<>+8(SB)/8, $0
DATA spread4<>+16(SB)/8, $0
DATA spread4<>+24(SB)/8, $0
DATA spread4<>+32(SB)/8, $1
DATA spread4<>+40(SB)/8, $1
DATA spread4<>+48(SB)/8, $1
DATA spread4<>+56(SB)/8, $1
GLOBL spread4<>(SB), RODATA|NOPTR, $64

DATA spread2<>+0(SB)/8, $0
DATA spread2<>+8(SB)/8, $0
DATA spread2<>+16(SB)/8, $1
DATA spread2<>+24(SB)/8, $1
DATA spread2<>+32(SB)/8, $2
DATA spread2<>+40(SB)/8, $2
DATA spread2<>+48(SB)/8, $3
DATA spread2<>+56(SB)/8, $3
GLOBL spread2<>(SB), RODATA|NOPTR, $64

DATA pairLo<>+0(SB)/8, $0
DATA pairLo<>+8(SB)/8, $1
DATA pairLo<>+16(SB)/8, $8
DATA pairLo<>+24(SB)/8, $9
DATA pairLo<>+32(SB)/8, $4
DATA pairLo<>+40(SB)/8, $5
DATA pairLo<>+48(SB)/8, $12
DATA pairLo<>+56(SB)/8, $13
GLOBL pairLo<>(SB), RODATA|NOPTR, $64

DATA pairHi<>+0(SB)/8, $2
DATA pairHi<>+8(SB)/8, $3
DATA pairHi<>+16(SB)/8, $10
DATA pairHi<>+24(SB)/8, $11
DATA pairHi<>+32(SB)/8, $6
DATA pairHi<>+40(SB)/8, $7
DATA pairHi<>+48(SB)/8, $14
DATA pairHi<>+56(SB)/8, $15
GLOBL pairHi<>(SB), RODATA|NOPTR, $64

DATA evens<>+0(SB)/8, $0
DATA evens<>+8(SB)/8, $2
DATA evens<>+16(SB)/8, $4
DATA evens<>+24(SB)/8, $6
DATA evens<>+32(SB)/8, $8
DATA evens<>+40(SB)/8, $10
DATA evens<>+48(SB)/8, $12
DATA evens<>+56(SB)/8, $14
GLOBL evens<>(SB), RODATA|NOPTR, $64

DATA odds<>+0(SB)/8, $1
DATA odds<>+8(SB)/8, $3
DATA odds<>+16(SB)/8, $5
DATA odds<>+24(SB)/8, $7
DATA odds<>+32(SB)/8, $9
DATA odds<>+40(SB)/8, $11
DATA odds<>+48(SB)/8, $13
DATA odds<>+56(SB)/8, $15
GLOBL odds<>(SB), RODATA|NOPTR, $64

DATA zipLo<>+0(SB)/8, $0
DATA zipLo<>+8(SB)/8, $8
DATA zipLo<>+16(SB)/8, $1
DATA zipLo<>+24(SB)/8, $9
DATA zipLo<>+32(SB)/8, $2
DATA zipLo<>+40(SB)/8, $10
DATA zipLo<>+48(SB)/8, $3
DATA zipLo<>+56(SB)/8, $11
GLOBL zipLo<>(SB), RODATA|NOPTR, $64

DATA zipHi<>+0(SB)/8, $4
DATA zipHi<>+8(SB)/8, $12
DATA zipHi<>+16(SB)/8, $5
DATA zipHi<>+24(SB)/8, $13
DATA zipHi<>+32(SB)/8, $6
DATA zipHi<>+40(SB)/8, $14
DATA zipHi<>+48(SB)/8, $7
DATA zipHi<>+56(SB)/8, $15
GLOBL zipHi<>(SB), RODATA|NOPTR, $64

// SHOUP sets X ← X·W mod q in [0, 2q) for X < 2^32, W < q, WS the
// 32-bit Shoup quotient of W.
#define SHOUP(X, W, WS, T) \
	VPMULUDQ WS, X, T;    \
	VPSRLQ   $32, T, T;   \
	VPMULUDQ W, X, X;     \
	VPMULUDQ Z15, T, T;   \
	VPSUBQ   T, X, X

// FWD_BF is the lazy Cooley–Tukey butterfly on u = X, y = Y, both in
// [0, 4q): u is corrected to [0, 2q), v = y·W mod q lands in [0, 2q),
// and X ← u + v, Y ← u + 2q − v, both in [0, 4q).
#define FWD_BF(X, Y, W, WS, T1, T2) \
	VPSUBQ  Z14, X, T1;         \
	VPMINUQ T1, X, X;           \
	SHOUP(Y, W, WS, T1);        \
	VPADDQ  Z14, X, T2;         \
	VPADDQ  Y, X, X;            \
	VPSUBQ  Y, T2, Y

// INV_BF is the lazy Gentleman–Sande butterfly on u = X, v = Y, both in
// [0, 2q): X ← (u + v) mod 2q and Y ← (u + 2q − v)·W mod q in [0, 2q).
#define INV_BF(X, Y, W, WS, T1, T2) \
	VPADDQ  Z14, X, T1;         \
	VPADDQ  Y, X, X;            \
	VPSUBQ  Y, T1, Y;           \
	VPSUBQ  Z14, X, T2;         \
	VPMINUQ T2, X, X;           \
	SHOUP(Y, W, WS, T2)

// CORRECT2 reduces X from [0, 4q) to [0, q).
#define CORRECT2(X, T) \
	VPSUBQ  Z14, X, T; \
	VPMINUQ T, X, X;   \
	VPSUBQ  Z15, X, T; \
	VPMINUQ T, X, X

// func nttAVX512(a, psi, psiSho []uint64, q uint64)
TEXT ·nttAVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), DX
	MOVQ psi_base+24(FP), BX
	MOVQ psiSho_base+48(FP), CX
	VPBROADCASTQ q+72(FP), Z15
	VPADDQ Z15, Z15, Z14

	// Stages with butterfly distance t ≥ 8 stream the limb: stage t has
	// m blocks of 2t words, block b's twiddle is psi[m+b]; R8 = m, R9 = t.
	MOVQ $1, R8
	MOVQ DX, R9
	SHRQ $1, R9

	// Stage pairs (t, t/2) with t/2 ≥ 8 run as one radix-4 pass. Block b
	// of stage t holds four quarters x0..x3 of h = t/2 words: stage t
	// pairs (x0, x2) and (x1, x3) with psi[m+b], stage t/2 pairs (x0, x1)
	// with psi[2m+2b] and (x2, x3) with psi[2m+2b+1]. AX, DI and DX hold
	// the byte offsets of x1, x2 and x3.
fwdPair:
	CMPQ R9, $16
	JLT  fwdStage
	LEAQ (BX)(R8*8), R12
	LEAQ (CX)(R8*8), R13
	LEAQ (R12)(R8*8), BX
	LEAQ (R13)(R8*8), CX
	MOVQ R9, AX
	SHLQ $2, AX
	LEAQ (AX)(AX*1), DI
	LEAQ (DI)(AX*1), DX
	MOVQ SI, R11
	MOVQ R8, R10

fwdPairBlock:
	VPBROADCASTQ (R12), Z0
	VPBROADCASTQ (R13), Z1
	VPSRLQ $32, Z1, Z1
	VPBROADCASTQ (BX), Z8
	VPBROADCASTQ (CX), Z9
	VPSRLQ $32, Z9, Z9
	VPBROADCASTQ 8(BX), Z10
	VPBROADCASTQ 8(CX), Z11
	VPSRLQ $32, Z11, Z11
	MOVQ R9, R14
	SHRQ $1, R14

fwdPairLane:
	VMOVDQU64 (R11), Z2
	VMOVDQU64 (R11)(AX*1), Z3
	VMOVDQU64 (R11)(DI*1), Z4
	VMOVDQU64 (R11)(DX*1), Z5
	FWD_BF(Z2, Z4, Z0, Z1, Z6, Z7)
	FWD_BF(Z3, Z5, Z0, Z1, Z12, Z13)
	FWD_BF(Z2, Z3, Z8, Z9, Z6, Z7)
	FWD_BF(Z4, Z5, Z10, Z11, Z12, Z13)
	VMOVDQU64 Z2, (R11)
	VMOVDQU64 Z3, (R11)(AX*1)
	VMOVDQU64 Z4, (R11)(DI*1)
	VMOVDQU64 Z5, (R11)(DX*1)
	ADDQ $64, R11
	SUBQ $8, R14
	JNZ  fwdPairLane
	ADDQ DX, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $16, BX
	ADDQ $16, CX
	DECQ R10
	JNZ  fwdPairBlock
	MOVQ psi_base+24(FP), BX
	MOVQ psiSho_base+48(FP), CX
	SHLQ $2, R8
	SHRQ $2, R9
	JMP  fwdPair

	// A single stage, run when an odd number of streamed stages leaves
	// t = 8 over.
fwdStage:
	MOVQ a_len+8(FP), DX
	CMPQ R9, $8
	JLT  fwdTail
	MOVQ SI, R11
	LEAQ (BX)(R8*8), R12
	LEAQ (CX)(R8*8), R13
	MOVQ R8, R10

fwdBlock:
	VPBROADCASTQ (R12), Z0
	VPBROADCASTQ (R13), Z1
	VPSRLQ $32, Z1, Z1
	LEAQ (R11)(R9*8), DI
	MOVQ R9, R14

fwdLane:
	VMOVDQU64 (R11), Z2
	VMOVDQU64 (DI), Z3
	FWD_BF(Z2, Z3, Z0, Z1, Z4, Z5)
	VMOVDQU64 Z2, (R11)
	VMOVDQU64 Z3, (DI)
	ADDQ $64, R11
	ADDQ $64, DI
	SUBQ $8, R14
	JNZ  fwdLane
	MOVQ DI, R11
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ R10
	JNZ  fwdBlock
	SHLQ $1, R8
	SHRQ $1, R9
	JMP  fwdStage

	// The last three stages (t = 4, 2, 1) run per 16-word group in
	// registers. Their twiddle rows start at psi[n/8], psi[n/4] and
	// psi[n/2]; a group spans 2, 4 and 8 consecutive entries of them.
fwdTail:
	LEAQ (BX)(R8*8), R12
	LEAQ (CX)(R8*8), R13
	SHLQ $1, R8
	LEAQ (BX)(R8*8), R14
	LEAQ (CX)(R8*8), R9
	SHLQ $1, R8
	LEAQ (BX)(R8*8), AX
	LEAQ (CX)(R8*8), DI
	MOVQ DX, R10
	SHRQ $4, R10
	VMOVDQU64 spread4<>(SB), Z8
	VMOVDQU64 spread2<>(SB), Z9
	VMOVDQU64 pairLo<>(SB), Z10
	VMOVDQU64 pairHi<>(SB), Z11
	VMOVDQU64 zipLo<>(SB), Z12
	VMOVDQU64 zipHi<>(SB), Z13

fwdGroup:
	VMOVDQU64 (SI), Z2
	VMOVDQU64 64(SI), Z3

	// t = 4: X = words 0–3 of both 8-word blocks, Y = words 4–7.
	VSHUFI64X2 $0x44, Z3, Z2, Z4
	VSHUFI64X2 $0xEE, Z3, Z2, Z5
	VPERMQ (R12), Z8, Z0
	VPERMQ (R13), Z8, Z1
	VPSRLQ $32, Z1, Z1
	FWD_BF(Z4, Z5, Z0, Z1, Z6, Z7)

	// t = 2: X = words 0–1 of each 4-word block, Y = words 2–3.
	VMOVDQA64 Z4, Z2
	VPERMT2Q Z5, Z10, Z2
	VPERMT2Q Z5, Z11, Z4
	VPERMQ (R14), Z9, Z0
	VPERMQ (R9), Z9, Z1
	VPSRLQ $32, Z1, Z1
	FWD_BF(Z2, Z4, Z0, Z1, Z6, Z7)

	// t = 1: X = even words, Y = odd words, one block per lane.
	VPUNPCKLQDQ Z4, Z2, Z5
	VPUNPCKHQDQ Z4, Z2, Z3
	VMOVDQU64 (AX), Z0
	VMOVDQU64 (DI), Z1
	VPSRLQ $32, Z1, Z1
	FWD_BF(Z5, Z3, Z0, Z1, Z6, Z7)
	CORRECT2(Z5, Z6)
	CORRECT2(Z3, Z6)

	// Interleave the even and odd words back into natural order.
	VMOVDQA64 Z5, Z2
	VPERMT2Q Z3, Z12, Z2
	VPERMT2Q Z3, Z13, Z5
	VMOVDQU64 Z2, (SI)
	VMOVDQU64 Z5, 64(SI)
	ADDQ $128, SI
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $32, R14
	ADDQ $32, R9
	ADDQ $64, AX
	ADDQ $64, DI
	DECQ R10
	JNZ  fwdGroup
	VZEROUPPER
	RET

// func inttAVX512(a, psiInv, psiInvSho []uint64, q, nInv, nInvSho, nInvPsi, nInvPsiSho uint64)
TEXT ·inttAVX512(SB), NOSPLIT, $0-112
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), DX
	MOVQ psiInv_base+24(FP), BX
	MOVQ psiInvSho_base+48(FP), CX
	VPBROADCASTQ q+72(FP), Z15
	VPADDQ Z15, Z15, Z14

	// The first three stages (t = 1, 2, 4) run per 16-word group in
	// registers, mirroring the forward tail. Twiddle rows start at
	// psiInv[n/2], psiInv[n/4] and psiInv[n/8].
	MOVQ DX, R8
	SHRQ $1, R8
	LEAQ (BX)(R8*8), AX
	LEAQ (CX)(R8*8), DI
	SHRQ $1, R8
	LEAQ (BX)(R8*8), R14
	LEAQ (CX)(R8*8), R9
	SHRQ $1, R8
	LEAQ (BX)(R8*8), R12
	LEAQ (CX)(R8*8), R13
	MOVQ DX, R10
	SHRQ $4, R10
	MOVQ SI, R11
	VMOVDQU64 spread4<>(SB), Z8
	VMOVDQU64 spread2<>(SB), Z9
	VMOVDQU64 pairLo<>(SB), Z10
	VMOVDQU64 pairHi<>(SB), Z11
	VMOVDQU64 evens<>(SB), Z12
	VMOVDQU64 odds<>(SB), Z13

invGroup:
	VMOVDQU64 (R11), Z2
	VMOVDQU64 64(R11), Z3

	// t = 1: X = even words, Y = odd words, one block per lane.
	VMOVDQA64 Z2, Z4
	VPERMT2Q Z3, Z12, Z4
	VPERMT2Q Z3, Z13, Z2
	VMOVDQU64 (AX), Z0
	VMOVDQU64 (DI), Z1
	VPSRLQ $32, Z1, Z1
	INV_BF(Z4, Z2, Z0, Z1, Z6, Z7)

	// t = 2: X = words 0–1 of each 4-word block, Y = words 2–3.
	VPUNPCKLQDQ Z2, Z4, Z5
	VPUNPCKHQDQ Z2, Z4, Z3
	VPERMQ (R14), Z9, Z0
	VPERMQ (R9), Z9, Z1
	VPSRLQ $32, Z1, Z1
	INV_BF(Z5, Z3, Z0, Z1, Z6, Z7)

	// t = 4: X = words 0–3 of both 8-word blocks, Y = words 4–7.
	VMOVDQA64 Z5, Z4
	VPERMT2Q Z3, Z10, Z4
	VPERMT2Q Z3, Z11, Z5
	VPERMQ (R12), Z8, Z0
	VPERMQ (R13), Z8, Z1
	VPSRLQ $32, Z1, Z1
	INV_BF(Z4, Z5, Z0, Z1, Z6, Z7)

	VSHUFI64X2 $0x44, Z5, Z4, Z2
	VSHUFI64X2 $0xEE, Z5, Z4, Z3
	VMOVDQU64 Z2, (R11)
	VMOVDQU64 Z3, 64(R11)
	ADDQ $128, R11
	ADDQ $64, AX
	ADDQ $64, DI
	ADDQ $32, R14
	ADDQ $32, R9
	ADDQ $16, R12
	ADDQ $16, R13
	DECQ R10
	JNZ  invGroup

	// Middle stages t = 8 … n/4: m blocks of 2t words, block b's
	// twiddle is psiInv[m+b]; R8 = m, R9 = t.
	MOVQ DX, R8
	SHRQ $4, R8
	MOVQ $8, R9

	// Stage pairs (t, 2t) below the closing stage (m ≥ 4) run as one
	// radix-4 pass. Block b of stage 2t holds four quarters x0..x3 of t
	// words: stage t pairs (x0, x1) with psiInv[m+2b] and (x2, x3) with
	// psiInv[m+2b+1], stage 2t pairs (x0, x2) and (x1, x3) with
	// psiInv[m/2+b]. AX, DI and DX hold the byte offsets of x1, x2, x3.
invPair:
	CMPQ R8, $4
	JLT  invStage
	LEAQ (BX)(R8*8), R12
	LEAQ (CX)(R8*8), R13
	MOVQ R8, R10
	SHRQ $1, R10
	LEAQ (BX)(R10*8), BX
	LEAQ (CX)(R10*8), CX
	MOVQ R9, AX
	SHLQ $3, AX
	LEAQ (AX)(AX*1), DI
	LEAQ (DI)(AX*1), DX
	MOVQ SI, R11

invPairBlock:
	VPBROADCASTQ (R12), Z0
	VPBROADCASTQ (R13), Z1
	VPSRLQ $32, Z1, Z1
	VPBROADCASTQ 8(R12), Z8
	VPBROADCASTQ 8(R13), Z9
	VPSRLQ $32, Z9, Z9
	VPBROADCASTQ (BX), Z10
	VPBROADCASTQ (CX), Z11
	VPSRLQ $32, Z11, Z11
	MOVQ R9, R14

invPairLane:
	VMOVDQU64 (R11), Z2
	VMOVDQU64 (R11)(AX*1), Z3
	VMOVDQU64 (R11)(DI*1), Z4
	VMOVDQU64 (R11)(DX*1), Z5
	INV_BF(Z2, Z3, Z0, Z1, Z6, Z7)
	INV_BF(Z4, Z5, Z8, Z9, Z12, Z13)
	INV_BF(Z2, Z4, Z10, Z11, Z6, Z7)
	INV_BF(Z3, Z5, Z10, Z11, Z12, Z13)
	VMOVDQU64 Z2, (R11)
	VMOVDQU64 Z3, (R11)(AX*1)
	VMOVDQU64 Z4, (R11)(DI*1)
	VMOVDQU64 Z5, (R11)(DX*1)
	ADDQ $64, R11
	SUBQ $8, R14
	JNZ  invPairLane
	ADDQ DX, R11
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $8, BX
	ADDQ $8, CX
	DECQ R10
	JNZ  invPairBlock
	MOVQ psiInv_base+24(FP), BX
	MOVQ psiInvSho_base+48(FP), CX
	SHRQ $2, R8
	SHLQ $2, R9
	JMP  invPair

	// A single stage, run when an odd number of middle stages leaves one
	// below the closing stage.
invStage:
	CMPQ R8, $2
	JLT  invClose
	MOVQ SI, R11
	LEAQ (BX)(R8*8), R12
	LEAQ (CX)(R8*8), R13
	MOVQ R8, R10

invBlock:
	VPBROADCASTQ (R12), Z0
	VPBROADCASTQ (R13), Z1
	VPSRLQ $32, Z1, Z1
	LEAQ (R11)(R9*8), DI
	MOVQ R9, R14

invLane:
	VMOVDQU64 (R11), Z2
	VMOVDQU64 (DI), Z3
	INV_BF(Z2, Z3, Z0, Z1, Z4, Z5)
	VMOVDQU64 Z2, (R11)
	VMOVDQU64 Z3, (DI)
	ADDQ $64, R11
	ADDQ $64, DI
	SUBQ $8, R14
	JNZ  invLane
	MOVQ DI, R11
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ R10
	JNZ  invBlock
	SHRQ $1, R8
	SHLQ $1, R9
	JMP  invStage

	// Closing stage (t = n/2): the sum leg scales by N⁻¹, the difference
	// leg by ψ^-brv(1)·N⁻¹, and both correct to [0, q).
invClose:
	VPBROADCASTQ nInv+80(FP), Z0
	VPBROADCASTQ nInvSho+88(FP), Z1
	VPSRLQ $32, Z1, Z1
	VPBROADCASTQ nInvPsi+96(FP), Z8
	VPBROADCASTQ nInvPsiSho+104(FP), Z9
	VPSRLQ $32, Z9, Z9
	LEAQ (SI)(R9*8), DI
	MOVQ R9, R14

invCloseLane:
	VMOVDQU64 (SI), Z2
	VMOVDQU64 (DI), Z3
	VPADDQ Z14, Z2, Z4
	VPSUBQ Z3, Z4, Z4
	VPADDQ Z3, Z2, Z2
	SHOUP(Z2, Z0, Z1, Z5)
	VPSUBQ  Z15, Z2, Z5
	VPMINUQ Z5, Z2, Z2
	SHOUP(Z4, Z8, Z9, Z5)
	VPSUBQ  Z15, Z4, Z5
	VPMINUQ Z5, Z4, Z4
	VMOVDQU64 Z2, (SI)
	VMOVDQU64 Z4, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, R14
	JNZ  invCloseLane
	VZEROUPPER
	RET
