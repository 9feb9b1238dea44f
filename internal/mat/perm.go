// Package mat implements Memory-Aligned Transformation (§IV-B): the
// machinery for representing data reorderings as permutations, fusing
// them, and — wherever a reordering feeds an operation with a
// compile-time-known parameter — embedding it into that parameter
// offline so the runtime kernel never moves data (Fig. 9).
//
// It is the reference model of MAT's algebra, checked by its own tests:
// the ring package builds its 3-step NTT layouts (bit reversal, digit
// swap, transposed twiddles) directly and checks them against the naive
// NTT, and nothing in the program imports this package.
package mat

import (
	"fmt"
	"math/bits"
)

// Permutation is a bijection on [0, n): out[i] = in[p[i]] under Apply.
// This "gather" convention composes left-to-right with function
// application: Apply(Compose(p, q), x) = Apply(p, Apply(q, x)).
type Permutation []int

// Identity returns the identity permutation on n elements.
func Identity(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Validate checks that p is a bijection on [0, len(p)).
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("mat: permutation entry %d at %d out of range", v, i)
		}
		if seen[v] {
			return fmt.Errorf("mat: permutation repeats %d", v)
		}
		seen[v] = true
	}
	return nil
}

// IsIdentity reports whether p is the identity.
func (p Permutation) IsIdentity() bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// Apply gathers: out[i] = in[p[i]]. out must not alias in.
func (p Permutation) Apply(out, in []uint64) {
	if len(out) != len(p) || len(in) != len(p) {
		panic("mat: permutation length mismatch")
	}
	for i, v := range p {
		out[i] = in[v]
	}
}

// ApplyNew is Apply into a fresh slice.
func (p Permutation) ApplyNew(in []uint64) []uint64 {
	out := make([]uint64, len(in))
	p.Apply(out, in)
	return out
}

// Inverse returns p⁻¹ (the scatter form of the same reordering).
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// Compose returns the permutation r with Apply(r, x) =
// Apply(p, Apply(q, x)), i.e. r[i] = q[p[i]].
func (p Permutation) Compose(q Permutation) Permutation {
	if len(p) != len(q) {
		panic("mat: composing permutations of different sizes")
	}
	r := make(Permutation, len(p))
	for i := range r {
		r[i] = q[p[i]]
	}
	return r
}

// Equal reports element-wise equality.
func (p Permutation) Equal(q Permutation) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// BitReverse returns the bit-reversal permutation on n = 2^k elements —
// the reordering radix-2 NTT outputs carry and MAT folds into twiddle
// rows/columns (§IV-B2b).
func BitReverse(n int) (Permutation, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("mat: bit reversal needs a power-of-two size, got %d", n)
	}
	width := uint(bits.Len(uint(n)) - 1)
	p := make(Permutation, n)
	for i := range p {
		p[i] = int(bits.Reverse64(uint64(i)) >> (64 - width))
	}
	return p, nil
}

// Transpose returns the permutation that re-reads an r×c row-major
// matrix as its transpose: out (c×r row-major) [j·r+i] = in[i·c+j].
// This is the explicit-reorder cost of the 4-step NTT that MAT removes.
func Transpose(r, c int) Permutation {
	p := make(Permutation, r*c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			p[j*r+i] = i*c + j
		}
	}
	return p
}

// DigitSwap returns the permutation mapping natural evaluation order to
// the 3-step NTT's native C×R layout: slot j2·r+j1 reads natural index
// j2 + c·j1 (ring.LayoutDigitSwap).
func DigitSwap(r, c int) Permutation {
	p := make(Permutation, r*c)
	for j2 := 0; j2 < c; j2++ {
		for j1 := 0; j1 < r; j1++ {
			p[j2*r+j1] = j2 + c*j1
		}
	}
	return p
}
