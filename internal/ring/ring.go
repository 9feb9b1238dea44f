// Package ring implements the negacyclic polynomial ring
// R_Q = Z_Q[x]/(x^N + 1) over an RNS basis — the algebraic substrate of
// RLWE-based HE (§II-A1). It provides the ring arithmetic, coefficient
// sampling, automorphisms, and all NTT algorithm variants the paper
// compares:
//
//   - radix-2 Cooley–Tukey butterfly NTT (Alg. 3), the GPU-favoured
//     O(N log N) algorithm with per-stage bit-complement shuffles;
//   - a naive O(N²) evaluation transform used as the correctness oracle;
//   - the 4-step matrix NTT with explicit transpose and bit-reverse
//     (the SoTA GPU tensor-core algorithm, Fig. 10 row 1);
//   - the MAT layout-invariant 3-step matrix NTT (Fig. 10 row 2) in
//     nttmat.go, whose matrix multiplications BAT lowers to the MXU.
package ring

import (
	"fmt"

	"cross/internal/modarith"
)

// Ring is an RNS negacyclic polynomial ring of degree N over the primes
// of a basis. It owns the per-modulus NTT twiddle tables. A Ring is
// immutable after construction and safe for concurrent use.
type Ring struct {
	N      int
	LogN   uint
	Moduli []*modarith.Modulus
	tables []*nttTable
	// parallelism is the worker count for whole-polynomial transforms
	// (0/1 = serial); set via WithParallelism, never mutated in place.
	parallelism int
	// scratch is the shared limb arena + automorphism-table cache;
	// held by pointer so AtLevel/WithParallelism views share its limbs.
	scratch *arena
}

// NewRing constructs the ring of degree n (a power of two ≥ 8) over the
// given primes, each of which must satisfy q ≡ 1 (mod 2n).
func NewRing(n int, primes []uint64) (*Ring, error) {
	if n < 8 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: degree %d must be a power of two ≥ 8", n)
	}
	moduli, err := modarith.NewModuli(primes)
	if err != nil {
		return nil, err
	}
	r := &Ring{
		N:       n,
		Moduli:  moduli,
		tables:  make([]*nttTable, len(moduli)),
		scratch: &arena{n: n},
	}
	for n>>r.LogN != 1 {
		r.LogN++
	}
	for i, m := range moduli {
		if (m.Q-1)%uint64(2*n) != 0 {
			return nil, fmt.Errorf("ring: modulus %d is not NTT-friendly for degree %d", m.Q, n)
		}
		tbl, err := newNTTTable(m, n)
		if err != nil {
			return nil, err
		}
		r.tables[i] = tbl
	}
	return r, nil
}

// MustRing is NewRing that panics on error.
func MustRing(n int, primes []uint64) *Ring {
	r, err := NewRing(n, primes)
	if err != nil {
		panic(err)
	}
	return r
}

// L returns the number of RNS limbs.
func (r *Ring) L() int { return len(r.Moduli) }

// Primes returns the prime chain.
func (r *Ring) Primes() []uint64 {
	out := make([]uint64, len(r.Moduli))
	for i, m := range r.Moduli {
		out[i] = m.Q
	}
	return out
}

// AtLevel returns a view of the ring restricted to the first level+1
// limbs (level counts surviving rescales, so level = L-1 is fresh).
func (r *Ring) AtLevel(level int) (*Ring, error) {
	if level < 0 || level >= len(r.Moduli) {
		return nil, fmt.Errorf("ring: level %d out of range [0, %d]", level, len(r.Moduli)-1)
	}
	return &Ring{
		N:           r.N,
		LogN:        r.LogN,
		Moduli:      r.Moduli[:level+1],
		tables:      r.tables[:level+1],
		parallelism: r.parallelism,
		scratch:     r.scratch,
	}, nil
}

// Psi returns the primitive 2N-th root of unity for limb i.
func (r *Ring) Psi(i int) uint64 { return r.tables[i].psi }

// Omega returns the primitive N-th root (ψ²) for limb i.
func (r *Ring) Omega(i int) uint64 { return r.tables[i].omega }

// Poly is a polynomial with limb-major RNS coefficients: Coeffs[i][k] is
// coefficient k modulo prime i. The number of limbs may be smaller than
// the ring's (polynomials at lower levels).
type Poly struct {
	Coeffs [][]uint64
}

// NewPoly allocates a zero polynomial with l limbs of n coefficients in
// one contiguous backing array.
func NewPoly(l, n int) *Poly {
	backing := make([]uint64, l*n)
	coeffs := make([][]uint64, l)
	for i := range coeffs {
		coeffs[i], backing = backing[:n:n], backing[n:]
	}
	return &Poly{Coeffs: coeffs}
}

// NewPoly allocates a zero polynomial spanning all limbs of the ring.
func (r *Ring) NewPoly() *Poly { return NewPoly(len(r.Moduli), r.N) }

// Level returns the polynomial's level (limb count − 1).
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// N returns the coefficient count.
func (p *Poly) N() int {
	if len(p.Coeffs) == 0 {
		return 0
	}
	return len(p.Coeffs[0])
}

// CopyNew returns a deep copy of p.
func (p *Poly) CopyNew() *Poly {
	q := NewPoly(len(p.Coeffs), p.N())
	for i := range p.Coeffs {
		copy(q.Coeffs[i], p.Coeffs[i])
	}
	return q
}

// Copy copies src into p; the shapes must match.
func (p *Poly) Copy(src *Poly) {
	if len(p.Coeffs) != len(src.Coeffs) {
		panic("ring: limb count mismatch in Copy")
	}
	for i := range p.Coeffs {
		copy(p.Coeffs[i], src.Coeffs[i])
	}
}

// Truncate drops limbs beyond level (used after rescale).
func (p *Poly) Truncate(level int) {
	p.Coeffs = p.Coeffs[:level+1]
}

// Equal reports deep equality.
func (p *Poly) Equal(q *Poly) bool {
	if len(p.Coeffs) != len(q.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if len(p.Coeffs[i]) != len(q.Coeffs[i]) {
			return false
		}
		for k := range p.Coeffs[i] {
			if p.Coeffs[i][k] != q.Coeffs[i][k] {
				return false
			}
		}
	}
	return true
}

// limbCount bounds an operation to the limbs present in all operands.
func limbCount(ps ...*Poly) int {
	n := ps[0].Level() + 1
	for _, p := range ps[1:] {
		if l := p.Level() + 1; l < n {
			n = l
		}
	}
	return n
}

// Add computes p3 = p1 + p2 limb-wise over the shared limbs.
func (r *Ring) Add(p1, p2, p3 *Poly) {
	for i := 0; i < limbCount(p1, p2, p3); i++ {
		r.Moduli[i].VecAddMod(p3.Coeffs[i], p1.Coeffs[i], p2.Coeffs[i])
	}
}

// Sub computes p3 = p1 - p2 limb-wise.
func (r *Ring) Sub(p1, p2, p3 *Poly) {
	for i := 0; i < limbCount(p1, p2, p3); i++ {
		r.Moduli[i].VecSubMod(p3.Coeffs[i], p1.Coeffs[i], p2.Coeffs[i])
	}
}

// Neg computes p2 = -p1 limb-wise.
func (r *Ring) Neg(p1, p2 *Poly) {
	for i := 0; i < limbCount(p1, p2); i++ {
		r.Moduli[i].VecNegMod(p2.Coeffs[i], p1.Coeffs[i])
	}
}

// MulCoeffs computes the element-wise (Hadamard) product p3 = p1 ⊙ p2 —
// polynomial multiplication when both operands are in the NTT domain.
func (r *Ring) MulCoeffs(p1, p2, p3 *Poly) {
	for i := 0; i < limbCount(p1, p2, p3); i++ {
		r.Moduli[i].VecMulMod(p3.Coeffs[i], p1.Coeffs[i], p2.Coeffs[i], modarith.Barrett)
	}
}

// MulCoeffsAndAdd computes p3 += p1 ⊙ p2.
func (r *Ring) MulCoeffsAndAdd(p1, p2, p3 *Poly) {
	for i := 0; i < limbCount(p1, p2, p3); i++ {
		r.Moduli[i].VecMulAddMod(p3.Coeffs[i], p1.Coeffs[i], p2.Coeffs[i])
	}
}

// MulScalar computes p2 = c · p1 for a word-size scalar.
func (r *Ring) MulScalar(p1 *Poly, c uint64, p2 *Poly) {
	for i := 0; i < limbCount(p1, p2); i++ {
		r.Moduli[i].VecScalarMulMod(p2.Coeffs[i], p1.Coeffs[i], c)
	}
}

// MulScalarVec multiplies limb i by scalars[i] (per-limb constants, e.g.
// rescale factors).
func (r *Ring) MulScalarVec(p1 *Poly, scalars []uint64, p2 *Poly) {
	for i := 0; i < limbCount(p1, p2); i++ {
		r.Moduli[i].VecScalarMulMod(p2.Coeffs[i], p1.Coeffs[i], scalars[i])
	}
}

// MulPolyNaive multiplies two coefficient-domain polynomials by the
// O(N²) negacyclic schoolbook rule — the convention-free correctness
// oracle for every NTT variant.
func (r *Ring) MulPolyNaive(p1, p2, p3 *Poly) {
	n := r.N
	for i := 0; i < limbCount(p1, p2, p3); i++ {
		m := r.Moduli[i]
		out := make([]uint64, n)
		a, b := p1.Coeffs[i], p2.Coeffs[i]
		for x := 0; x < n; x++ {
			if a[x] == 0 {
				continue
			}
			for y := 0; y < n; y++ {
				t := m.MulMod(a[x], b[y])
				k := x + y
				if k < n {
					out[k] = m.AddMod(out[k], t)
				} else {
					out[k-n] = m.SubMod(out[k-n], t) // x^N = -1
				}
			}
		}
		copy(p3.Coeffs[i], out)
	}
}
