package modarith

import (
	"errors"
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest supported modulus width. Products of two
// residues must fit in the 128-bit intermediates produced by bits.Mul64,
// and the Barrett precomputation needs 2·log2(q)+1 bits of headroom.
const MaxModulusBits = 61

// Modulus bundles a prime modulus q with the precomputed constants needed
// by the Barrett, Montgomery, and Shoup reduction paths. A Modulus is
// immutable after construction and safe for concurrent use.
type Modulus struct {
	Q    uint64 // the modulus itself
	Bits uint   // ⌈log2(q)⌉

	// Barrett (Alg. 4): m = ⌊2^s / q⌋ with s = 2·Bits, stored as a
	// 128-bit value (BarrettHi·2^64 + BarrettLo) so the same constants
	// also serve the 128-bit reduction of full 2·Bits products.
	BarrettShift  uint
	BarrettHi     uint64
	BarrettLo     uint64
	barrett64Hi   uint64 // ⌊2^128 / q⌋ high word, for ReduceWide
	barrett64Lo   uint64 // ⌊2^128 / q⌋ low word
	barrettWord   uint64 // ⌊2^64 / q⌋, for one-word values (Reduce)
	MontR         uint64 // R mod q with R = 2^64
	MontR2        uint64 // R² mod q
	MontQInvNeg   uint64 // -q⁻¹ mod 2^64
	montRInv      uint64 // R⁻¹ mod q (for exiting the Montgomery domain)
	qTimes2       uint64 // 2q, the lazy-reduction bound
	qTimes4       uint64 // 4q, bound used by fused lazy butterflies
	hasMontgomery bool   // q must be odd

	// word holds the constants of the AVX-512 one-word reduction; set
	// only when q < 2^32, the bound of every kernel that uses it.
	word WordReducer
}

// NewModulus constructs a Modulus for prime q. It returns an error when q
// is not an odd prime in (1, 2^MaxModulusBits).
func NewModulus(q uint64) (*Modulus, error) {
	if q < 3 {
		return nil, fmt.Errorf("modarith: modulus %d too small", q)
	}
	if bits.Len64(q) > MaxModulusBits {
		return nil, fmt.Errorf("modarith: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	if q%2 == 0 {
		return nil, fmt.Errorf("modarith: modulus %d must be odd", q)
	}
	if !IsPrime(q) {
		return nil, fmt.Errorf("modarith: modulus %d is not prime", q)
	}
	m := &Modulus{Q: q, Bits: uint(bits.Len64(q))}
	m.qTimes2 = 2 * q
	m.qTimes4 = 4 * q

	// Barrett constant ⌊2^(2·Bits) / q⌋. 2·Bits ≤ 122 so the constant
	// fits in 128 bits; compute it with a simple long division.
	m.BarrettShift = 2 * m.Bits
	m.BarrettHi, m.BarrettLo = divPow2ByQ(m.BarrettShift, q)
	m.barrett64Hi, m.barrett64Lo = divPow2ByQ(128, q)
	m.barrettWord, _ = bits.Div64(1, 0, q)
	if q < 1<<32 {
		m.word = newWordReducer(q)
	}

	// Montgomery constants for R = 2^64.
	m.MontQInvNeg = negInvPow2(q)
	m.MontR = modPow2(64, q)
	m.MontR2 = m.MulMod(m.MontR, m.MontR)
	m.montRInv = m.InvMod(m.MontR)
	m.hasMontgomery = true
	return m, nil
}

// MustModulus is NewModulus that panics on error; intended for parameter
// tables and tests where the modulus is known to be valid.
func MustModulus(q uint64) *Modulus {
	m, err := NewModulus(q)
	if err != nil {
		panic(err)
	}
	return m
}

// divPow2ByQ returns ⌊2^shift / q⌋ as a 128-bit (hi, lo) pair.
func divPow2ByQ(shift uint, q uint64) (hi, lo uint64) {
	// Long division of the 1 followed by `shift` zero bits by q.
	var rem uint64
	for i := int(shift); i >= 0; i-- {
		rem <<= 1
		if i == int(shift) {
			rem |= 1
		}
		bit := uint64(0)
		if rem >= q {
			rem -= q
			bit = 1
		}
		if i >= 64 {
			hi = hi<<1 | bit
		} else {
			lo = lo<<1 | bit
		}
	}
	// For shift ≥ 64 the loop above shifted hi once per iteration in
	// [64, shift], which is shift-63 iterations; the arithmetic works
	// because hi starts at zero and q ≥ 3 keeps the quotient below
	// 2^(shift-1).
	return hi, lo
}

// modPow2 returns 2^shift mod q.
func modPow2(shift uint, q uint64) uint64 {
	r := uint64(1) % q
	for i := uint(0); i < shift; i++ {
		r <<= 1
		if r >= q {
			r -= q
		}
	}
	return r
}

// negInvPow2 returns -q⁻¹ mod 2^64 via Newton iteration (q odd).
func negInvPow2(q uint64) uint64 {
	inv := q // correct mod 2^3 for odd q? start with q: q*q ≡ 1 mod 8.
	for i := 0; i < 6; i++ {
		inv *= 2 - q*inv
	}
	return -inv
}

// AddMod returns (a + b) mod q for a, b in [0, q).
func (m *Modulus) AddMod(a, b uint64) uint64 {
	s := a + b
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// SubMod returns (a - b) mod q for a, b in [0, q).
func (m *Modulus) SubMod(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + m.Q - b
}

// NegMod returns -a mod q for a in [0, q).
func (m *Modulus) NegMod(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// MulMod returns (a · b) mod q using a 128-bit intermediate and the
// precomputed ⌊2^128/q⌋ Barrett constant. Inputs need not be reduced.
func (m *Modulus) MulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.ReduceWide(hi, lo)
}

// ReduceWide reduces a 128-bit value (hi·2^64 + lo) modulo q. A value
// that fits one word (every product of two residues below 2^32) takes
// the one-multiply Reduce.
func (m *Modulus) ReduceWide(hi, lo uint64) uint64 {
	if hi == 0 {
		return m.Reduce(lo)
	}
	// Barrett with µ = ⌊2^128/q⌋: t = ⌊x·µ / 2^128⌋, r = x - t·q, then at
	// most two corrections. We only need the low 64 bits of r.
	t := mulHi128(hi, lo, m.barrett64Hi, m.barrett64Lo)
	// r = lo - t·q (mod 2^64); the true remainder fits in 64 bits.
	r := lo - t*m.Q
	for r >= m.Q {
		r -= m.Q
	}
	return r
}

// mulHi128 returns ⌊(a·b) / 2^128⌋ for 128-bit operands a = aHi·2^64+aLo
// and b = bHi·2^64+bLo, assuming the product fits in 256 bits.
func mulHi128(aHi, aLo, bHi, bLo uint64) uint64 {
	// Full 256-bit product accumulated into four 64-bit words; we only
	// need word 2 (bits 128..191) because quotients here fit in 64 bits.
	c0h, _ := bits.Mul64(aLo, bLo) // bits 64..127 of aLo·bLo

	p1h, p1l := bits.Mul64(aLo, bHi)
	p2h, p2l := bits.Mul64(aHi, bLo)
	p3h, p3l := bits.Mul64(aHi, bHi)

	// word1 = c0h + p1l + p2l (with carries into word2)
	w1, carry1 := bits.Add64(c0h, p1l, 0)
	w1, carry2 := bits.Add64(w1, p2l, 0)
	_ = w1

	// word2 = p1h + p2h + p3l + carries
	w2 := p1h + p2h + p3l + carry1 + carry2
	_ = p3h // word3 unused: quotient < 2^64 by construction
	return w2
}

// PowMod returns a^e mod q by square-and-multiply.
func (m *Modulus) PowMod(a, e uint64) uint64 {
	a %= m.Q
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = m.MulMod(r, a)
		}
		a = m.MulMod(a, a)
		e >>= 1
	}
	return r
}

// InvMod returns a⁻¹ mod q (q prime) via Fermat's little theorem.
// It panics if a ≡ 0 mod q, which has no inverse.
func (m *Modulus) InvMod(a uint64) uint64 {
	a %= m.Q
	if a == 0 {
		panic("modarith: zero has no modular inverse")
	}
	return m.PowMod(a, m.Q-2)
}

// Reduce returns a mod q for any uint64 a by a one-word Barrett
// reduction with µ = ⌊2^64/q⌋: t = ⌊a·µ/2^64⌋ falls short of ⌊a/q⌋ by
// at most one, so r = a − t·q < 2q and one conditional subtraction
// finishes.
func (m *Modulus) Reduce(a uint64) uint64 {
	t, _ := bits.Mul64(a, m.barrettWord)
	r := a - t*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// ErrNoRoot is returned when the modulus does not support the requested
// root of unity (q ≢ 1 mod n).
var ErrNoRoot = errors.New("modarith: modulus has no primitive root of the requested order")

// PrimitiveRootOfUnity returns a primitive n-th root of unity modulo q,
// where n must be a power of two dividing q-1. The search is
// deterministic: candidates 2, 3, 4, ... are raised to (q-1)/n and the
// first result of exact order n is returned, so repeated calls and
// separate processes agree on the twiddle basis.
func (m *Modulus) PrimitiveRootOfUnity(n uint64) (uint64, error) {
	if n == 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("modarith: order %d is not a power of two", n)
	}
	if (m.Q-1)%n != 0 {
		return 0, ErrNoRoot
	}
	if n == 1 {
		return 1, nil
	}
	exp := (m.Q - 1) / n
	for g := uint64(2); g < m.Q; g++ {
		c := m.PowMod(g, exp)
		// For power-of-two n, ord(c) = n iff c^(n/2) = -1 mod q.
		if m.PowMod(c, n/2) == m.Q-1 {
			return c, nil
		}
	}
	return 0, ErrNoRoot
}

// IsPrime reports whether q is prime, using a deterministic Miller-Rabin
// witness set that is exact for all 64-bit integers.
func IsPrime(q uint64) bool {
	if q < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if q == p {
			return true
		}
		if q%p == 0 {
			return false
		}
	}
	d := q - 1
	r := uint(0)
	for d%2 == 0 {
		d /= 2
		r++
	}
	// Deterministic witnesses for n < 2^64 (Sinclair/Jaeschke).
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if !millerRabinWitness(q, a, d, r) {
			return false
		}
	}
	return true
}

func millerRabinWitness(n, a, d uint64, r uint) bool {
	x := powModGeneric(a, d, n)
	if x == 1 || x == n-1 {
		return true
	}
	for i := uint(1); i < r; i++ {
		x = mulModGeneric(x, x, n)
		if x == n-1 {
			return true
		}
	}
	return false
}

// mulModGeneric computes a·b mod n for arbitrary 64-bit n without
// precomputation, via 128-bit division.
func mulModGeneric(a, b, n uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi == 0 {
		return lo % n
	}
	_, rem := bits.Div64(hi%n, lo, n)
	return rem
}

func powModGeneric(a, e, n uint64) uint64 {
	a %= n
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = mulModGeneric(r, a, n)
		}
		a = mulModGeneric(a, a, n)
		e >>= 1
	}
	return r
}
