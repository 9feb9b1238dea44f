package rns

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sync"

	"cross/internal/simd"
)

// Converter implements fast basis conversion (BConv, Fig. 15b) from a
// source basis B1 = {q_i} to a target basis B2 = {p_j}:
//
//	Conv_{B1→B2}(a)_j = Σ_i [a_i · q̂_i⁻¹]_{q_i} · [q̂_i]_{p_j}  (mod p_j)
//
// Step 1 is L independent N-length VecModMul's; step 2 is one
// (N, L, L')-ModMatMul whose left matrix [q̂_i]_{p_j} is compile-time
// known — exactly the structure BAT exploits in Tab. VI.
type Converter struct {
	From *Basis
	To   *Basis

	// table[j][i] = (Q/q_i) mod p_j; row-major per output limb so that
	// step 2 is a per-output-limb inner product over input limbs.
	table [][]uint64
	// qModP[j] = Q mod p_j, used by the exactness correction (−v·Q).
	qModP []uint64
	// qInv[i] = 1/q_i as float64 for the HPS overflow estimate v.
	qInv []float64
	// oneWord is set when Σ_i (q_i−1)(p_j−1) < 2^64 for every target
	// prime p_j, so Step2 can sum each output coefficient in one word.
	oneWord bool
	// narrow is set when every source and target prime is below 2^32,
	// so the one-word Step2 may run as the AVX-512 multiply-accumulate.
	narrow bool

	// mu guards y, the Step 1 matrix that ConvertApproxInto and
	// ConvertExact own for the whole call; it grows only when a call
	// needs more coefficients than it holds, so the steady state
	// allocates nothing.
	mu sync.Mutex
	y  [][]uint64
}

// step1Matrix returns the converter's n-coefficient Step 1 matrix,
// regrowing it only when too small. The caller must hold c.mu.
func (c *Converter) step1Matrix(n int) [][]uint64 {
	if len(c.y) == 0 || cap(c.y[0]) < n {
		c.y = allocLimbs(c.From.L(), n)
	}
	for i := range c.y {
		c.y[i] = c.y[i][:n]
	}
	return c.y
}

// NewConverter precomputes the BConv constants between two bases. The
// bases must be disjoint (all moduli pairwise distinct) for the CRT map
// to be well defined on the union.
func NewConverter(from, to *Basis) (*Converter, error) {
	fromSet := make(map[uint64]bool, from.L())
	for _, q := range from.Primes() {
		fromSet[q] = true
	}
	for _, p := range to.Primes() {
		if fromSet[p] {
			return nil, fmt.Errorf("rns: basis conversion requires disjoint bases; %d appears in both", p)
		}
	}
	c := &Converter{
		From:  from,
		To:    to,
		table: make([][]uint64, to.L()),
		qModP: make([]uint64, to.L()),
		qInv:  make([]float64, from.L()),
	}
	for i, m := range from.Moduli {
		c.qInv[i] = 1.0 / float64(m.Q)
	}
	for j, pm := range to.Moduli {
		row := make([]uint64, from.L())
		for i := range from.Moduli {
			row[i] = bigMod(from.qHat[i], pm.Q)
		}
		c.table[j] = row
		c.qModP[j] = bigMod(from.Q, pm.Q)
	}
	c.oneWord = sumFitsWord(from, to)
	c.narrow = slices.Max(from.Primes()) < 1<<32 && slices.Max(to.Primes()) < 1<<32
	return c, nil
}

// sumFitsWord reports whether Σ_i (q_i−1)(p_j−1), the largest Step2
// sum of products of residues, stays below 2^64 for every target prime
// p_j.
func sumFitsWord(from, to *Basis) bool {
	for _, p := range to.Primes() {
		var sum uint64
		for _, q := range from.Primes() {
			hi, lo := bits.Mul64(q-1, p-1)
			var carry uint64
			sum, carry = bits.Add64(sum, lo, 0)
			if hi != 0 || carry != 0 {
				return false
			}
		}
	}
	return true
}

// Table returns the step-2 left matrix [q̂_i]_{p_j} indexed [j][i]. The
// CROSS compiler feeds this to BAT's offline pass.
func (c *Converter) Table() [][]uint64 { return c.table }

// Step1 computes y_i = [a_i · q̂_i⁻¹]_{q_i} for every input limb.
// in and out are limb-major: [L][N]. out may alias in.
func (c *Converter) Step1(out, in [][]uint64) {
	if len(in) != c.From.L() || len(out) != c.From.L() {
		panic("rns: Step1 limb count mismatch")
	}
	for i := range in {
		c.Step1Limb(i, out[i], in[i])
	}
}

// Step1Limb is Step1 for source limb i alone, so callers can spread the
// limbs over workers. out may alias in.
func (c *Converter) Step1Limb(i int, out, in []uint64) {
	c.From.Moduli[i].VecScalarMulModShoup(out, in, c.From.qHatInv[i], c.From.qHatInvShoup[i])
}

// step2Tile is the coefficient-block width of the lazy Step2
// accumulation: per tile the partial sums live in stack arrays while
// the limb loop streams each source row sequentially — cache-friendly
// in both directions.
const step2Tile = 32

// Step2 computes c_j = Σ_i y_i · table[j][i] mod p_j — the
// (N, L, L')-ModMatMul. y is limb-major [L][N] with y_i in [0, q_i);
// out is [L'][N]. It is Step2Row for every output limb.
func (c *Converter) Step2(out, y [][]uint64) {
	if len(y) != c.From.L() || len(out) != c.To.L() {
		panic("rns: Step2 limb count mismatch")
	}
	for j := range out {
		c.Step2Row(j, out[j], y)
	}
}

// Step2Row computes output limb j of Step2 into out; rows are
// independent, so callers can spread them over workers.
//
// Accumulation is lazy: each output coefficient gathers its L products
// and reduces ONCE — no per-term correction at all. When the whole sum
// fits one word (oneWord, decided by NewConverter from the prime
// sizes) it is a single uint64 reduced by the one-word Barrett;
// otherwise it is a 128-bit (hi, lo) pair reduced with the ⌊2^128/p⌋
// constant, where a near-overflow fold (hi ≥ 2^62, reachable only for
// >60-bit moduli at large L) keeps the running sum exact. The one-word
// sum runs in AVX-512 assembly when every prime is below 2^32 (narrow),
// whole 8-lane vectors at a time, with the same outputs.
func (c *Converter) Step2Row(j int, out []uint64, y [][]uint64) {
	pm := c.To.Moduli[j]
	row := c.table[j]
	n := len(out)
	if c.oneWord {
		k0 := 0
		if c.narrow && simd.AVX512 {
			for _, src := range y[:len(row)] {
				if len(src) < n {
					panic("rns: Step2Row source limb shorter than output")
				}
			}
			k0 = n &^ 7
			step2RowAVX512(out[:k0], y, row, pm.WordReducer())
		}
		var acc [step2Tile]uint64
		for ; k0 < n; k0 += step2Tile {
			sum := acc[:min(step2Tile, n-k0)]
			clear(sum)
			for i, w := range row {
				src := y[i][k0 : k0+len(sum)]
				for k, v := range src {
					sum[k] += v * w
				}
			}
			for k, v := range sum {
				out[k0+k] = pm.Reduce(v)
			}
		}
		return
	}
	var lo, hi [step2Tile]uint64
	for k0 := 0; k0 < n; k0 += step2Tile {
		kn := min(step2Tile, n-k0)
		for k := 0; k < kn; k++ {
			lo[k], hi[k] = 0, 0
		}
		for i, w := range row {
			src := y[i][k0 : k0+kn]
			for k := 0; k < len(src); k++ {
				ph, pl := bits.Mul64(src[k], w)
				var cr uint64
				lo[k], cr = bits.Add64(lo[k], pl, 0)
				hi[k] += ph + cr
				if hi[k] >= 1<<62 {
					lo[k] = pm.ReduceWide(hi[k], lo[k])
					hi[k] = 0
				}
			}
		}
		for k := 0; k < kn; k++ {
			out[k0+k] = pm.ReduceWide(hi[k], lo[k])
		}
	}
}

// ConvertApprox performs the fast (approximate) basis conversion used
// inside key-switching ModUp: the result equals a + e·Q mod p_j for some
// overflow 0 ≤ e < L. in is [L][N] over From; the returned slice is
// [L'][N] over To.
func (c *Converter) ConvertApprox(in [][]uint64) [][]uint64 {
	out := allocLimbs(c.To.L(), len(in[0]))
	c.ConvertApproxInto(out, in)
	return out
}

// ConvertApproxInto is ConvertApprox with a caller-provided [L'][N]
// destination; the step-1 intermediate is the converter's own, so the
// steady state allocates nothing. Concurrent calls on one converter
// run one at a time.
func (c *Converter) ConvertApproxInto(out, in [][]uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	y := c.step1Matrix(len(in[0]))
	c.Step1(y, in)
	c.Step2(out, y)
}

// ConvertExact performs basis conversion with the HPS floating-point
// correction: since Σ y_i/q_i = v + x/Q exactly (q̂_i/Q = 1/q_i), the
// CRT overflow is v = ⌊Σ y_i/q_i⌋, which is computed per coefficient in
// float64 and subtracted as v·Q. The float estimate carries ≈L·2⁻⁵²
// absolute error, so the floor is correct unless x/Q falls within that
// distance of an integer — never the case for the ≤64-limb parameter
// sets of Tab. IV on random inputs, and checked by tests.
func (c *Converter) ConvertExact(in [][]uint64) [][]uint64 {
	n := len(in[0])
	c.mu.Lock()
	defer c.mu.Unlock()
	y := c.step1Matrix(n)
	c.Step1(y, in)
	out := allocLimbs(c.To.L(), n)
	c.Step2(out, y)

	// Overflow estimate and correction.
	for k := 0; k < n; k++ {
		sum := 0.0
		for i := range y {
			sum += float64(y[i][k]) * c.qInv[i]
		}
		v := uint64(math.Floor(sum))
		if v == 0 {
			continue
		}
		for j, pm := range c.To.Moduli {
			corr := pm.MulMod(v%pm.Q, c.qModP[j])
			out[j][k] = pm.SubMod(out[j][k], corr)
		}
	}
	return out
}

// OverflowBound returns the maximum CRT overflow e of ConvertApprox,
// i.e. L (the number of source limbs).
func (c *Converter) OverflowBound() uint64 { return uint64(c.From.L()) }

// allocLimbs allocates an [l][n] limb matrix backed by one contiguous
// buffer (single allocation, cache-friendly row access).
func allocLimbs(l, n int) [][]uint64 {
	backing := make([]uint64, l*n)
	out := make([][]uint64, l)
	for i := range out {
		out[i], backing = backing[:n:n], backing[n:]
	}
	return out
}

// AllocLimbs exposes the contiguous limb-matrix allocator to other
// packages in the reproduction.
func AllocLimbs(l, n int) [][]uint64 { return allocLimbs(l, n) }

// CopyLimbs deep-copies a limb matrix.
func CopyLimbs(in [][]uint64) [][]uint64 {
	if len(in) == 0 {
		return nil
	}
	out := allocLimbs(len(in), len(in[0]))
	for i := range in {
		copy(out[i], in[i])
	}
	return out
}

// bigMod returns x mod m for a big integer x and word-size m.
func bigMod(x *big.Int, m uint64) uint64 {
	return new(big.Int).Mod(x, new(big.Int).SetUint64(m)).Uint64()
}
