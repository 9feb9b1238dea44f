package cross

import (
	"fmt"

	"cross/internal/bat"
	"cross/internal/modarith"
	"cross/internal/ring"
)

// Functional execution of the CROSS lowering (the compiler's second
// face): this file runs the *exact arithmetic the TPU would execute* —
// uint8 operands, int32 systolic accumulation, chunk merges, word-level
// reductions — end to end for the layout-invariant 3-step NTT (Fig. 10
// row 3) and for BConv step 2. It exists to prove, bit for bit, that
// the BAT+MAT rewrite computes the same function as the reference
// kernels; the cost model prices precisely this op stream.

// NTTExecutor is the offline-compiled functional form of the MAT NTT
// for one ring: BAT-compiled step-1/step-3 twiddle matrices per limb
// plus the element-wise twist, in the plan's evaluation layout.
type NTTExecutor struct {
	Ring *ring.Ring
	Plan *ring.MatNTTPlan
	R, C int

	limbs []*nttExecLimb
}

type nttExecLimb struct {
	step1 *bat.MatMulPlan // (C, C) twiddles, BAT-compiled
	step3 *bat.MatMulPlan // (R, R) twiddles (transposed for left-mult)
	tw    []uint64        // C×R element-wise twist
	twS   []uint64
}

// NewNTTExecutor BAT-compiles the plan's twiddle matrices offline
// (OFFLINECOMPILELEFT applied to T1 and T3ᵀ).
func NewNTTExecutor(rg *ring.Ring, plan *ring.MatNTTPlan) (*NTTExecutor, error) {
	ex := &NTTExecutor{Ring: rg, Plan: plan, R: plan.R, C: plan.C,
		limbs: make([]*nttExecLimb, rg.L())}
	for i := range rg.Moduli {
		t1, tw, t3 := plan.Matrices(i)
		m := rg.Moduli[i]
		step1, err := bat.OfflineCompileLeft(m, t1, plan.C, plan.C)
		if err != nil {
			return nil, fmt.Errorf("cross: limb %d step1: %w", i, err)
		}
		// Step 3 computes Ã @ T3; with T3 symmetric ((ω^C)^{rj} =
		// (ω^C)^{jr}) the MAT identity (Ã@T3)ᵀ = T3ᵀ@Ãᵀ = T3@Ãᵀ lets
		// the same left-operand BAT form serve: we evaluate
		// Y ᵀ = T3' @ Ãᵀ where T3' is T3 with its columns pre-permuted
		// (already folded into the plan), i.e. T3 transposed row-major.
		t3T := transposeFlat(t3, plan.R, plan.R)
		step3, err := bat.OfflineCompileLeft(m, t3T, plan.R, plan.R)
		if err != nil {
			return nil, fmt.Errorf("cross: limb %d step3: %w", i, err)
		}
		twS := make([]uint64, len(tw))
		for k, w := range tw {
			twS[k] = m.ShoupPrecompute(w)
		}
		ex.limbs[i] = &nttExecLimb{step1: step1, step3: step3, tw: tw, twS: twS}
	}
	return ex, nil
}

func transposeFlat(a []uint64, rows, cols int) []uint64 {
	out := make([]uint64, len(a))
	transposeFlatInto(out, a, rows, cols)
	return out
}

// transposeFlatInto writes the transpose of a (rows×cols) into out
// (cols×rows). out must not alias a.
func transposeFlatInto(out, a []uint64, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = a[i*cols+j]
		}
	}
}

// ForwardLimb executes the full CROSS NTT pipeline for one limb using
// only the operations the TPU lowering emits:
//
//	chunk-stack → INT8 MatMul (MXU) → merge+reduce (VPU) →
//	twist (VPU) → chunk-stack → INT8 MatMul → merge+reduce.
//
// Output matches ring.MatNTTPlan.ForwardLimb bit-exactly.
func (ex *NTTExecutor) ForwardLimb(i int, in []uint64) ([]uint64, error) {
	out := make([]uint64, len(in))
	if err := ex.ForwardLimbInto(i, in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardLimbInto is ForwardLimb with a caller-provided destination;
// all intermediates come from the ring's shared scratch arena (R·C ==
// N words each), so the steady state allocates nothing. in and out
// may alias.
func (ex *NTTExecutor) ForwardLimbInto(i int, in, out []uint64) error {
	lm := ex.limbs[i]
	m := ex.Ring.Moduli[i]
	r, c := ex.R, ex.C
	if len(in) != r*c {
		return fmt.Errorf("cross: input length %d != N=%d", len(in), r*c)
	}
	if len(out) != r*c {
		return fmt.Errorf("cross: output length %d != N=%d", len(out), r*c)
	}

	// Step 1: A = T1 @ X with X the C×R reshape of the input.
	a := ex.Ring.GetScratch()[:c*r]
	defer ex.Ring.PutScratch(a)
	if err := lm.step1.MulInto(a, in, r, 1); err != nil {
		return err
	}
	// Step 2: element-wise twist (VPU).
	m.VecMulModShoup(a, a, lm.tw, lm.twS)
	// Step 3: Y = Ã @ T3 evaluated as Yᵀ = T3ᵀ @ Ãᵀ (MAT transpose
	// identity; the "transpose" of operands is a compile-time reindex,
	// not a runtime shuffle — we simply read Ã column-major).
	aT := ex.Ring.GetScratch()[:c*r]
	defer ex.Ring.PutScratch(aT)
	transposeFlatInto(aT, a, c, r)
	yT := a // step-1 buffer is free again after the transpose
	if err := lm.step3.MulInto(yT, aT, c, 1); err != nil {
		return err
	}
	transposeFlatInto(out, yT, r, c)
	return nil
}

// Forward executes every limb of a polynomial in place.
func (ex *NTTExecutor) Forward(p *ring.Poly) error {
	for i := 0; i <= p.Level(); i++ {
		if err := ex.ForwardLimbInto(i, p.Coeffs[i], p.Coeffs[i]); err != nil {
			return err
		}
	}
	return nil
}

// BConvStep2BAT executes basis-conversion step 2 through the BAT
// pipeline: for each target modulus p_j the compile-time row
// [q̂_0…q̂_{L-1}]_{p_j} is BAT-compiled and the (1, L, N) low-precision
// MatMul accumulates the converted limb. y is limb-major [L][N]
// (step-1 output); table is [L'][L] (rns.Converter.Table layout);
// moduli are the L' target primes. The result is congruent limb-wise
// to rns.Converter.Step2.
func BConvStep2BAT(moduli []*modarith.Modulus, table [][]uint64, y [][]uint64) ([][]uint64, error) {
	if len(moduli) != len(table) {
		return nil, fmt.Errorf("cross: %d moduli for %d table rows", len(moduli), len(table))
	}
	l := len(y)
	if l == 0 {
		return nil, fmt.Errorf("cross: empty source")
	}
	n := len(y[0])
	flat := make([]uint64, l*n)
	for i := range y {
		copy(flat[i*n:(i+1)*n], y[i])
	}
	out := make([][]uint64, len(moduli))
	for j, m := range moduli {
		plan, err := bat.OfflineCompileLeft(m, table[j], 1, l)
		if err != nil {
			return nil, fmt.Errorf("cross: target limb %d: %w", j, err)
		}
		row, err := plan.Mul(flat, n)
		if err != nil {
			return nil, fmt.Errorf("cross: target limb %d: %w", j, err)
		}
		out[j] = row
	}
	return out, nil
}

// ExecuteVecModMulConv1D is the functional fallback path for
// ciphertext×ciphertext element-wise multiplication (Fig. 16): both
// operands unknown, scheduled as 1-D convolution over 8-bit chunks.
func ExecuteVecModMulConv1D(rg *ring.Ring, limb int, dst, a, b []uint64) {
	bat.Conv1DVecMul(rg.Moduli[limb], dst, a, b)
}
