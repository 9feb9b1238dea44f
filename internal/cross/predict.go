package cross

import (
	"fmt"

	"cross/internal/modarith"
)

// Calibration kernel names: the vocabulary shared between the host
// benchmark (internal/hostbench, which measures them) and the
// calibration harness (internal/calib, which prices them through
// PredictKernel and fits the model's free constants against the
// measurements). Each name is the base ID of the matching hostbench
// record.
const (
	KernelNTT           = "ntt_inplace"
	KernelINTT          = "intt_inplace"
	KernelVecMulShoup   = "vecmulmod_shoup"
	KernelVecMulBarrett = "vecmulmod_barrett"
	KernelVecAdd        = "vecaddmod"
	KernelAutomorphism  = "automorphism_ntt"
	KernelMatNTT        = "matntt_forward"
	KernelBATMatMul     = "bat_matmul"
	KernelBConv         = "bconv_approx"
)

// CalibKernels lists every named calibration kernel in measurement
// order (the order hostbench emits records in).
func CalibKernels() []string {
	return []string{
		KernelNTT, KernelINTT, KernelVecMulShoup, KernelVecMulBarrett,
		KernelVecAdd, KernelAutomorphism, KernelMatNTT, KernelBATMatMul,
		KernelBConv,
	}
}

// PredictKernel prices one named calibration kernel through the
// roofline/Schedule IR on the compiler's target and returns its
// Schedule — the simulator's *predicted* latency for the same work a
// hostbench measurement times. The kernel's size is the compiler's
// parameter set: element-wise kernels cover N = c.P.N() elements, the
// transforms run one N-point instance (batch 1, one limb), BConv
// converts 2→2 limbs (the hostbench ModUp shape), and the BAT matmul is
// the fixed 64×64×64 ablation size. Sizes match internal/hostbench
// kernel for kernel, so predicted and measured points pair directly.
//
// The mapping per kernel:
//
//   - ntt_inplace / intt_inplace: the radix-2 Cooley–Tukey lowering
//     (Alg. 3) — the algorithm the host kernels actually run (the model
//     prices forward and inverse identically; the host INTT's extra
//     normalisation lands in the fitted constants);
//   - vecmulmod_shoup / vecmulmod_barrett: the element-wise modular
//     multiply under that explicit reduction algorithm;
//   - vecaddmod: the element-wise modular add;
//   - automorphism_ntt: the one-limb gather lowering (§V-E);
//   - matntt_forward: the 3-step MAT NTT of one limb (Fig. 10);
//   - bat_matmul: the BAT ModMatMul ablation (Tab. V);
//   - bconv_approx: the 2→2-limb basis conversion on the VPU path
//     (the host converter is scalar, not matmul-based).
func (c *Compiler) PredictKernel(kernel string) (*Schedule, error) {
	n := c.P.N()
	var f func() float64
	switch kernel {
	case KernelNTT, KernelINTT:
		f = func() float64 { return c.costNTTRadix2(1) }
	case KernelVecMulShoup:
		f = func() float64 { return c.costVecModMulAlg(c.shard(n), modarith.Shoup) }
	case KernelVecMulBarrett:
		f = func() float64 { return c.costVecModMulAlg(c.shard(n), modarith.Barrett) }
	case KernelVecAdd:
		f = func() float64 { return c.costVecModAdd(n) }
	case KernelAutomorphism:
		f = func() float64 { return c.costAutomorphism(1) }
	case KernelMatNTT:
		f = func() float64 { return c.costNTTMat(1) }
	case KernelBATMatMul:
		f = func() float64 { return c.costMatModMulBAT(64, 64, 64) }
	case KernelBConv:
		f = func() float64 { return c.costBConv(n, 2, 2, false) }
	default:
		return nil, fmt.Errorf("cross: unknown calibration kernel %q (have %v)", kernel, CalibKernels())
	}
	return c.lowerOp(kernel, f), nil
}
