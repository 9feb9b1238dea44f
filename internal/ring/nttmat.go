package ring

import (
	"fmt"

	"cross/internal/modarith"
)

// Layout identifies the ordering of an evaluation-domain vector. The
// whole point of MAT (§IV-B) is that element-wise HE arithmetic is
// layout-agnostic, so a kernel may leave its output in whatever order
// falls out of the computation — as long as every operand agrees and the
// inverse transform knows how to read it.
type Layout int

const (
	// LayoutNatural: slot j holds the evaluation at ψ^(2j+1).
	LayoutNatural Layout = iota
	// LayoutBitRev: slot brv(j) holds evaluation j (radix-2 CT output).
	LayoutBitRev
	// LayoutDigitSwap: slot j2·R+j1 holds evaluation j2+C·j1 — the
	// native output of the 3-step matrix NTT with no reordering at all.
	LayoutDigitSwap
)

func (l Layout) String() string {
	switch l {
	case LayoutNatural:
		return "natural"
	case LayoutBitRev:
		return "bitrev"
	case LayoutDigitSwap:
		return "digitswap"
	default:
		return "unknown"
	}
}

// MatNTTPlan is the offline-compiled matrix form of the negacyclic NTT
// for one (R, C) split of N = R·C (Fig. 10). The forward transform is
//
//	Y = (T1 @ X) ⊙ TW @ T3
//
// with X the C×R row-major reshaping of the input, T1 the C×C
// column-NTT twiddle matrix, TW the C×R element-wise twist, and T3 the
// R×R row-NTT matrix. MAT's two tricks are both applied offline:
//
//   - transpose elimination: the output stays in the C×R layout
//     (LayoutDigitSwap), or — when bit-reversed order is required for
//     interoperability — the bit-reversal is folded into T1's rows, TW's
//     rows, and T3's columns (LayoutBitRev), never executed at runtime;
//   - all matrices carry precomputed Shoup quotients, the CPU analogue
//     of storing BAT-compiled operands.
type MatNTTPlan struct {
	R, C  int
	Order Layout // LayoutDigitSwap or LayoutBitRev
	ring  *Ring
	limbs []*matNTTLimb
}

type matNTTLimb struct {
	m *modarith.Modulus

	t1, t1S       []uint64 // C×C forward step-1 matrix (+ Shoup)
	tw, twS       []uint64 // C×R forward element-wise twist
	t3, t3S       []uint64 // R×R forward step-3 matrix
	t3Inv, t3InvS []uint64 // R×R inverse step-1'
	twInv, twInvS []uint64 // C×R inverse twist
	t1Inv, t1InvS []uint64 // C×C inverse step-3' (carries 1/N)
}

// NewMatNTTPlan compiles the matrix NTT for the ring with split (r, c).
// order selects the runtime output layout; LayoutNatural is rejected
// because producing it requires a runtime transpose — that is exactly
// the 4-step baseline, available as Forward4Step.
func NewMatNTTPlan(rg *Ring, r, c int, order Layout) (*MatNTTPlan, error) {
	if r*c != rg.N {
		return nil, fmt.Errorf("ring: split %d×%d does not cover degree %d", r, c, rg.N)
	}
	if r < 2 || c < 2 || r&(r-1) != 0 || c&(c-1) != 0 {
		return nil, fmt.Errorf("ring: split factors (%d, %d) must be powers of two ≥ 2", r, c)
	}
	if order != LayoutDigitSwap && order != LayoutBitRev {
		return nil, fmt.Errorf("ring: matrix NTT emits %v or %v only; natural order needs the 4-step transpose", LayoutDigitSwap, LayoutBitRev)
	}
	p := &MatNTTPlan{R: r, C: c, Order: order, ring: rg, limbs: make([]*matNTTLimb, rg.L())}
	for i := range rg.Moduli {
		p.limbs[i] = p.compileLimb(i)
	}
	return p, nil
}

// compileLimb builds the six matrices of one modulus. All the offline
// work of MAT — twiddle generation, permutation folding, Shoup
// precomputation — happens here, once, exactly as the paper's compiler
// does it ahead of time.
func (p *MatNTTPlan) compileLimb(i int) *matNTTLimb {
	m := p.ring.Moduli[i]
	tbl := p.ring.tables[i]
	r, c := p.R, p.C
	n := p.ring.N
	psi, psiInv := tbl.psi, tbl.psiInv
	omega := tbl.omega
	omegaInv := m.InvMod(omega)
	nInv := tbl.nInv

	lm := &matNTTLimb{m: m}

	// Row/column permutations: identity for DigitSwap, bit-reversal for
	// BitRev (brv_C on the C dimension, brv_R on the R dimension).
	rowPerm := make([]int, c)
	colPerm := make([]int, r)
	logC, logR := log2(c), log2(r)
	for j := range rowPerm {
		rowPerm[j] = j
	}
	for j := range colPerm {
		colPerm[j] = j
	}
	if p.Order == LayoutBitRev {
		for j := range rowPerm {
			rowPerm[j] = int(bitReverse(uint64(j), logC))
		}
		for j := range colPerm {
			colPerm[j] = int(bitReverse(uint64(j), logR))
		}
	}

	// T1[j2][cc] = ψ^{R·cc·(2·j2+1)}   (C×C), rows permuted offline.
	lm.t1 = make([]uint64, c*c)
	for j2 := 0; j2 < c; j2++ {
		src := rowPerm[j2]
		for cc := 0; cc < c; cc++ {
			e := uint64(r) * uint64(cc) % uint64(2*n) * uint64(2*src+1) % uint64(2*n)
			lm.t1[j2*c+cc] = m.PowMod(psi, e)
		}
	}

	// TW[j2][rr] = ψ^{rr·(2·j2+1)}   (C×R), rows permuted offline.
	lm.tw = make([]uint64, c*r)
	for j2 := 0; j2 < c; j2++ {
		src := rowPerm[j2]
		for rr := 0; rr < r; rr++ {
			e := uint64(rr) * uint64(2*src+1) % uint64(2*n)
			lm.tw[j2*r+rr] = m.PowMod(psi, e)
		}
	}

	// T3[rr][j1] = (ω^C)^{rr·j1}   (R×R), columns permuted offline.
	omegaC := m.PowMod(omega, uint64(c))
	lm.t3 = make([]uint64, r*r)
	for rr := 0; rr < r; rr++ {
		for j1 := 0; j1 < r; j1++ {
			lm.t3[rr*r+j1] = m.PowMod(omegaC, uint64(rr)*uint64(colPerm[j1])%uint64(n))
		}
	}

	// Inverse matrices, reading the forward output layout directly.
	// T3inv[p1][rr] = (ω^C)^{-brv(p1)·rr}  (row-permuted).
	omegaCInv := m.PowMod(omegaInv, uint64(c))
	lm.t3Inv = make([]uint64, r*r)
	for p1 := 0; p1 < r; p1++ {
		src := colPerm[p1]
		for rr := 0; rr < r; rr++ {
			lm.t3Inv[p1*r+rr] = m.PowMod(omegaCInv, uint64(src)*uint64(rr)%uint64(n))
		}
	}

	// TWinv[p2][rr] = ψ^{-rr·(2·brv(p2)+1)}  (row-permuted).
	lm.twInv = make([]uint64, c*r)
	for p2 := 0; p2 < c; p2++ {
		src := rowPerm[p2]
		for rr := 0; rr < r; rr++ {
			e := uint64(rr) * uint64(2*src+1) % uint64(2*n)
			lm.twInv[p2*r+rr] = m.PowMod(psiInv, e)
		}
	}

	// T1inv[cc][p2] = (1/N)·ψ^{-R·cc·(2·brv(p2)+1)}  (column-permuted).
	lm.t1Inv = make([]uint64, c*c)
	for cc := 0; cc < c; cc++ {
		for p2 := 0; p2 < c; p2++ {
			src := rowPerm[p2]
			e := uint64(r) * uint64(cc) % uint64(2*n) * uint64(2*src+1) % uint64(2*n)
			lm.t1Inv[cc*c+p2] = m.MulMod(m.PowMod(psiInv, e), nInv)
		}
	}

	lm.t1S = shoupVec(m, lm.t1)
	lm.twS = shoupVec(m, lm.tw)
	lm.t3S = shoupVec(m, lm.t3)
	lm.t3InvS = shoupVec(m, lm.t3Inv)
	lm.twInvS = shoupVec(m, lm.twInv)
	lm.t1InvS = shoupVec(m, lm.t1Inv)
	return lm
}

func shoupVec(m *modarith.Modulus, v []uint64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = m.ShoupPrecompute(x)
	}
	return out
}

func log2(x int) uint {
	var l uint
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}

// Matrices exposes the forward step matrices of limb i (T1, TW, T3) for
// the CROSS compiler's BAT pass. The returned slices are the live plan
// tables and must not be mutated.
func (p *MatNTTPlan) Matrices(i int) (t1, tw, t3 []uint64) {
	lm := p.limbs[i]
	return lm.t1, lm.tw, lm.t3
}

// InverseMatrices exposes the inverse step matrices of limb i.
func (p *MatNTTPlan) InverseMatrices(i int) (t3Inv, twInv, t1Inv []uint64) {
	lm := p.limbs[i]
	return lm.t3Inv, lm.twInv, lm.t1Inv
}

// ForwardLimb transforms one limb: in (natural coefficient order, length
// N) to the plan's evaluation layout. in and out may alias. Scratch
// comes from the ring's arena, so steady-state calls allocate nothing.
func (p *MatNTTPlan) ForwardLimb(i int, in, out []uint64) {
	lm := p.limbs[i]
	r, c := p.R, p.C
	rg := p.ring
	tmp := rg.GetScratch()[:c*r]
	// Step 1: A = T1 @ X, X[cc][rr] = in[cc·R+rr].
	matMulConstLeft(lm.m, lm.t1, lm.t1S, c, c, in, r, tmp, rg)
	// Step 2: A ⊙ TW (VPU-mapped element-wise twist).
	lm.m.VecMulModShoup(tmp, tmp, lm.tw, lm.twS)
	// Step 3: Y = Ã @ T3.
	matMulConstRight(lm.m, tmp, c, r, lm.t3, lm.t3S, r, out, rg)
	rg.PutScratch(tmp)
}

// InverseLimb inverts ForwardLimb: evaluation layout back to natural
// coefficient order. in and out may alias.
func (p *MatNTTPlan) InverseLimb(i int, in, out []uint64) {
	lm := p.limbs[i]
	r, c := p.R, p.C
	rg := p.ring
	tmp := rg.GetScratch()[:c*r]
	// Step 1': U = Z @ T3inv.
	matMulConstRight(lm.m, in, c, r, lm.t3Inv, lm.t3InvS, r, tmp, rg)
	// Step 2': ⊙ TWinv.
	lm.m.VecMulModShoup(tmp, tmp, lm.twInv, lm.twInvS)
	// Step 3': X = T1inv @ Ũ.
	matMulConstLeft(lm.m, lm.t1Inv, lm.t1InvS, c, c, tmp, r, out, rg)
	rg.PutScratch(tmp)
}

// Forward transforms every limb of p into the plan's layout,
// limb-parallel when the plan's ring has WithParallelism configured.
func (p *MatNTTPlan) Forward(poly *Poly) {
	parallelFor(p.ring.Parallelism(), poly.Level()+1, func(i int) {
		p.ForwardLimb(i, poly.Coeffs[i], poly.Coeffs[i])
	})
}

// Inverse inverts every limb of p (limb-parallel like Forward).
func (p *MatNTTPlan) Inverse(poly *Poly) {
	parallelFor(p.ring.Parallelism(), poly.Level()+1, func(i int) {
		p.InverseLimb(i, poly.Coeffs[i], poly.Coeffs[i])
	})
}

// Forward4Step is the SoTA GPU baseline (Fig. 10 row 1): the same
// matrix pipeline followed by an explicit runtime transpose to natural
// order — the data reordering MAT exists to remove. Only defined for
// plans compiled with LayoutDigitSwap (the un-permuted twiddles).
func (p *MatNTTPlan) Forward4Step(i int, in, out []uint64) {
	if p.Order != LayoutDigitSwap {
		panic("ring: Forward4Step requires a LayoutDigitSwap plan")
	}
	r, c := p.R, p.C
	y := p.ring.GetScratch()[:c*r]
	p.ForwardLimb(i, in, y)
	// Explicit transpose: natural out[j1·C+j2] = Y[j2][j1].
	for j2 := 0; j2 < c; j2++ {
		for j1 := 0; j1 < r; j1++ {
			out[j1*c+j2] = y[j2*r+j1]
		}
	}
	p.ring.PutScratch(y)
}

// Inverse4Step inverts Forward4Step from natural order.
func (p *MatNTTPlan) Inverse4Step(i int, in, out []uint64) {
	if p.Order != LayoutDigitSwap {
		panic("ring: Inverse4Step requires a LayoutDigitSwap plan")
	}
	r, c := p.R, p.C
	y := p.ring.GetScratch()[:c*r]
	for j2 := 0; j2 < c; j2++ {
		for j1 := 0; j1 < r; j1++ {
			y[j2*r+j1] = in[j1*c+j2]
		}
	}
	p.InverseLimb(i, y, out)
	p.ring.PutScratch(y)
}

// lazyAccumBound reports how many [0,2q) terms can be summed in a uint64
// before overflow.
func lazyAccumBound(q uint64) int {
	maxTerms := ^uint64(0) / (2 * q)
	if maxTerms > 1<<30 {
		return 1 << 30
	}
	return int(maxTerms)
}

// aliasScratch resolves the destination for an in-place matrix product
// of size ≤ N words: when x and out share backing, the result is staged
// in a borrowed arena limb, to be copied out and returned at the end.
func aliasScratch(x, out []uint64, size int, rg *Ring) (res []uint64, borrowed bool) {
	if !sameBacking(x, out) {
		return out, false
	}
	return rg.GetScratch()[:size], true
}

// matMulConstLeft computes out = A @ X where A (rows×inner, with Shoup
// table AS) is a compile-time constant and X is inner×cols runtime data.
// All matrices are flat row-major. rg's arena supplies aliasing scratch.
func matMulConstLeft(m *modarith.Modulus, a, aS []uint64, rows, inner int, x []uint64, cols int, out []uint64, rg *Ring) {
	if lazyAccumBound(m.Q) < inner {
		matMulConstLeftSafe(m, a, rows, inner, x, cols, out, rg)
		return
	}
	res, borrowed := aliasScratch(x, out, rows*cols, rg)
	for i := 0; i < rows; i++ {
		arow := a[i*inner : (i+1)*inner]
		asrow := aS[i*inner : (i+1)*inner]
		for j := 0; j < cols; j++ {
			var acc uint64
			for k := 0; k < inner; k++ {
				acc += m.ShoupMul(x[k*cols+j], arow[k], asrow[k])
			}
			res[i*cols+j] = m.Reduce(acc)
		}
	}
	if borrowed {
		copy(out, res)
		rg.PutScratch(res)
	}
}

// matMulConstLeftSafe is the wide-modulus fallback with per-term
// reduction.
func matMulConstLeftSafe(m *modarith.Modulus, a []uint64, rows, inner int, x []uint64, cols int, out []uint64, rg *Ring) {
	res, borrowed := aliasScratch(x, out, rows*cols, rg)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var acc uint64
			for k := 0; k < inner; k++ {
				acc = m.AddMod(acc, m.MulMod(a[i*inner+k], x[k*cols+j]))
			}
			res[i*cols+j] = acc
		}
	}
	if borrowed {
		copy(out, res)
		rg.PutScratch(res)
	}
}

// matMulConstRight computes out = X @ B where B (inner×cols, with Shoup
// table BS) is a compile-time constant and X is rows×inner runtime data.
func matMulConstRight(m *modarith.Modulus, x []uint64, rows, inner int, b, bS []uint64, cols int, out []uint64, rg *Ring) {
	safe := lazyAccumBound(m.Q) < inner
	res, borrowed := aliasScratch(x, out, rows*cols, rg)
	for i := 0; i < rows; i++ {
		xrow := x[i*inner : (i+1)*inner]
		for j := 0; j < cols; j++ {
			var acc uint64
			if safe {
				for k := 0; k < inner; k++ {
					acc = m.AddMod(acc, m.MulMod(xrow[k], b[k*cols+j]))
				}
			} else {
				for k := 0; k < inner; k++ {
					acc += m.ShoupMul(xrow[k], b[k*cols+j], bS[k*cols+j])
				}
				acc = m.Reduce(acc)
			}
			res[i*cols+j] = acc
		}
	}
	if borrowed {
		copy(out, res)
		rg.PutScratch(res)
	}
}

// sameBacking reports whether two slices share their first element —
// sufficient aliasing detection for the in-place call patterns above.
func sameBacking(a, b []uint64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}
