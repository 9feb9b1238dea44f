package bat

import (
	"fmt"
	"math/bits"
	"sync"

	"cross/internal/modarith"
)

// MatMulPlan is the offline-compiled BAT form of a high-precision
// (H,V,W)-ModMatMul with a pre-known left operand A (Fig. 8, Alg. 2):
// A is expanded into a dense KH×KV uint8 matrix once at compile time;
// at runtime the right operand is chunk-stacked to KV×W, a single
// low-precision matrix multiplication runs on the matrix engine, and the
// K-row groups of the int32 result are merged and reduced.
type MatMulPlan struct {
	H, V, K int
	m       *modarith.Modulus
	// ADense is the KH×KV compiled left operand (row-major). Each K×K
	// block [hK:(h+1)K, vK:(v+1)K] is DirectScalarBAT(A[h][v]).
	ADense []uint8

	// mu guards the runtime pipeline's buffers, which MulInto owns for
	// the whole call: the chunk-stacked right operand (uint8) and the
	// int32 partial-sum matrix. They grow only when a call needs more
	// than they hold, so steady-state MulInto calls allocate nothing.
	mu   sync.Mutex
	bBuf []uint8
	zBuf []int32
}

// OfflineCompileLeft compiles the pre-known left matrix A (flat H×V
// row-major, entries reduced mod q) into its dense low-precision form
// (Alg. 2 OFFLINECOMPILELEFT).
func OfflineCompileLeft(m *modarith.Modulus, a []uint64, h, v int) (*MatMulPlan, error) {
	if err := validateModulus(m.Q); err != nil {
		return nil, err
	}
	if len(a) != h*v {
		return nil, fmt.Errorf("bat: left matrix is %d elements, want %d×%d", len(a), h, v)
	}
	k := NumChunks(m.Bits)
	p := &MatMulPlan{H: h, V: v, K: k, m: m, ADense: make([]uint8, (k*h)*(k*v))}
	kv := k * v
	for hh := 0; hh < h; hh++ {
		for vv := 0; vv < v; vv++ {
			sub, err := DirectScalarBAT(m, a[hh*v+vv])
			if err != nil {
				return nil, err
			}
			for i := 0; i < k; i++ {
				copy(p.ADense[(hh*k+i)*kv+vv*k:(hh*k+i)*kv+vv*k+k], sub.M[i*k:(i+1)*k])
			}
		}
	}
	return p, nil
}

// CompileRight chunk-stacks the runtime right operand B (flat V×W
// row-major) into its KV×W low-precision layout (Alg. 2
// RUNTIMECOMPILERIGHT). This is the 4% "type conversion" overhead the
// paper's Fig. 12 breakdown attributes to BAT.
func (p *MatMulPlan) CompileRight(b []uint64, w int) ([]uint8, error) {
	if len(b) != p.V*w {
		return nil, fmt.Errorf("bat: right matrix is %d elements, want %d×%d", len(b), p.V, w)
	}
	out := make([]uint8, p.K*p.V*w)
	p.compileRightInto(out, b, w)
	return out, nil
}

// compileRightInto chunk-stacks b into dst (len K·V·W, fully
// overwritten).
func (p *MatMulPlan) compileRightInto(dst []uint8, b []uint64, w int) {
	k := p.K
	for vv := 0; vv < p.V; vv++ {
		for ww := 0; ww < w; ww++ {
			x := b[vv*w+ww] % p.m.Q
			for kk := 0; kk < k; kk++ {
				dst[(vv*k+kk)*w+ww] = uint8((x >> (uint(kk) * BP)) & chunkMask)
			}
		}
	}
}

// psumBits returns the accumulator width 2·bp + log2(K·V) the paper
// checks against the engine's accumulator precision (Fig. 8 caption).
func (p *MatMulPlan) psumBits() uint {
	bits := uint(2 * BP)
	for kv := p.K * p.V; kv > 1; kv >>= 1 {
		bits++
	}
	return bits
}

// PsumBits exposes the partial-sum width for plan validation and for the
// simulator's overflow check.
func (p *MatMulPlan) PsumBits() uint { return p.psumBits() }

// MatMulLowPrec runs the KH×KV by KV×W uint8 matrix multiplication with
// int32 accumulation — the exact arithmetic of the MXU systolic array.
// It returns the KH×W int32 partial-sum matrix.
func (p *MatMulPlan) MatMulLowPrec(bDense []uint8, w int) ([]int32, error) {
	return p.MatMulLowPrecParallel(bDense, w, 1)
}

// matMulRows computes output rows [i0, i1) of the low-precision
// product into z — the unit of work both the serial path and the
// parallel row-sharded path execute identically.
func (p *MatMulPlan) matMulRows(bDense []uint8, w, i0, i1 int, z []int32) {
	kv := p.K * p.V
	for i := i0; i < i1; i++ {
		arow := p.ADense[i*kv : (i+1)*kv]
		zrow := z[i*w : (i+1)*w]
		for kk := 0; kk < kv; kk++ {
			av := int32(arow[kk])
			if av == 0 {
				continue
			}
			brow := bDense[kk*w : (kk+1)*w]
			for j := 0; j < w; j++ {
				zrow[j] += av * int32(brow[j])
			}
		}
	}
}

// MergeReduce merges each K-row group of the int32 partial-sum matrix
// into a word and reduces it mod q (Alg. 2 MAIN lines 33–36), returning
// the H×W result of the original high-precision ModMatMul.
func (p *MatMulPlan) MergeReduce(z []int32, w int) []uint64 {
	return p.MergeReduceParallel(z, w, 1)
}

// mergeReduceRows merges output rows [h0, h1) into out. The K partial
// sums live in a fixed stack array (K ≤ 8 for any ≤61-bit modulus at
// BP=8... in practice K ≤ 4 for the ≤32-bit BAT moduli), so concurrent
// row ranges share no state and the merge allocates nothing.
func (p *MatMulPlan) mergeReduceRows(z []int32, w, h0, h1 int, out []uint64) {
	k := p.K
	var psums [8]int32
	for hh := h0; hh < h1; hh++ {
		for ww := 0; ww < w; ww++ {
			for i := 0; i < k; i++ {
				psums[i] = z[(hh*k+i)*w+ww]
			}
			out[hh*w+ww] = p.m.Reduce(ChunkMergeWide(psums[:k]))
		}
	}
}

// Mul executes the full pipeline (Alg. 2 MAIN-FULLMATMUL): compile the
// right operand, run the low-precision MatMul, merge and reduce.
func (p *MatMulPlan) Mul(b []uint64, w int) ([]uint64, error) {
	return p.MulParallel(b, w, 1)
}

// MulInto is Mul with a caller-provided destination (len H·W) and all
// intermediates in the plan's own buffers: the steady state performs
// zero allocations. Concurrent calls on one plan run one at a time.
// workers < 1 is clamped to the serial path, matching MulParallel.
func (p *MatMulPlan) MulInto(dst []uint64, b []uint64, w, workers int) error {
	if workers < 1 {
		workers = 1
	}
	if w <= 0 || len(b) != p.V*w {
		return fmt.Errorf("bat: right matrix is %d elements, want %d×%d", len(b), p.V, w)
	}
	if len(dst) != p.H*w {
		return fmt.Errorf("bat: destination is %d elements, want %d×%d", len(dst), p.H, w)
	}
	if p.psumBits() > 31 {
		return fmt.Errorf("bat: partial sums need %d bits, exceeding the 32-bit MXU accumulator", p.psumBits())
	}
	kh, kv := p.K*p.H, p.K*p.V
	p.mu.Lock()
	defer p.mu.Unlock()
	if cap(p.bBuf) < kv*w {
		p.bBuf = make([]uint8, kv*w)
	}
	if cap(p.zBuf) < kh*w {
		p.zBuf = make([]int32, kh*w)
	}
	bd, z := p.bBuf[:kv*w], p.zBuf[:kh*w]
	p.compileRightInto(bd, b, w)
	clear(z)
	if workers == 1 {
		// Serial fast path: no range slices, no goroutine closures —
		// the steady state stays allocation-free.
		p.matMulRows(bd, w, 0, kh, z)
		p.mergeReduceRows(z, w, 0, p.H, dst)
	} else {
		runRanges(rowRanges(kh, workers), func(start, end int) {
			p.matMulRows(bd, w, start, end, z)
		})
		runRanges(rowRanges(p.H, workers), func(start, end int) {
			p.mergeReduceRows(z, w, start, end, dst)
		})
	}
	return nil
}

// ModMatMulDirect is the high-precision reference: out = A·B mod q
// computed directly with word arithmetic, accumulating each output in
// 128 bits via bits.Mul64 and reducing once (lazy accumulation; a
// rare near-overflow fold keeps the high word bounded for ≥62-bit
// running sums). It is both the correctness oracle for the BAT
// pipeline and the VPU-mapped baseline of Tab. V.
func ModMatMulDirect(m *modarith.Modulus, a []uint64, h, v int, b []uint64, w int) []uint64 {
	out := make([]uint64, h*w)
	for i := 0; i < h; i++ {
		arow := a[i*v : (i+1)*v]
		for j := 0; j < w; j++ {
			var hi, lo uint64
			for kk := 0; kk < v; kk++ {
				ph, pl := bits.Mul64(arow[kk], b[kk*w+j])
				var c uint64
				lo, c = bits.Add64(lo, pl, 0)
				hi += ph + c
				if hi >= 1<<62 {
					lo = m.ReduceWide(hi, lo)
					hi = 0
				}
			}
			out[i*w+j] = m.ReduceWide(hi, lo)
		}
	}
	return out
}

// SparseMatMulBaseline multiplies A·B mod q through the GPU-style sparse
// decomposition: every scalar product a·b runs the (2K−1)×K sparse
// Toeplitz MatVecMul of Fig. 7 with its long carry chain. Functionally
// identical to BAT but with the ~43% zero-padding and double-length
// reduction the paper's Tab. V baseline pays for.
func SparseMatMulBaseline(m *modarith.Modulus, a []uint64, h, v int, b []uint64, w int) []uint64 {
	out := make([]uint64, h*w)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			var acc uint64
			for kk := 0; kk < v; kk++ {
				acc = m.AddMod(acc, SparseScalarMul(m, a[i*v+kk], b[kk*w+j]))
			}
			out[i*w+j] = acc
		}
	}
	return out
}
