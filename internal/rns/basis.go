// Package rns implements the Residue Number System substrate (§II-A3).
//
// RNS represents a coefficient a ∈ [0, Q) by its residues modulo a chain
// of pairwise-coprime primes {q_0, ..., q_{L-1}} with Q = Π q_i; each
// residue vector of a degree-N polynomial is a "limb". The package
// provides the basis bookkeeping, the decoder's word-size centred CRT
// (Garner's mixed-radix reconstruction, DecodeCenteredFloat), the exact
// big-integer CRT (Decode, DecodeCentered) that tests use as its
// reference, and the fast Basis Conversion (BConv) kernel of Fig. 15b,
// whose step 2 is the (N, L, L')-ModMatMul that BAT accelerates on the
// matrix engine (Tab. VI).
package rns

import (
	"fmt"
	"math/big"
	"sync"

	"cross/internal/modarith"
)

// Basis is an ordered set of RNS moduli B = {q_0, ..., q_{L-1}}.
// It precomputes, for every prime, q̂_i = Q/q_i and its inverse mod q_i —
// the constants of the CRT reconstruction and of BConv step 1.
type Basis struct {
	Moduli []*modarith.Modulus
	Q      *big.Int // Π q_i

	// qHatInv[i] = (Q/q_i)⁻¹ mod q_i, the step-1 constant of Fig. 15b.
	qHatInv []uint64
	// qHatInvShoup[i] is its Shoup quotient for the VPU fast path.
	qHatInvShoup []uint64
	// qHat[i] = Q/q_i as a big integer (used by exact reconstruction).
	qHat []*big.Int

	// garner holds DecodeCenteredFloat's constants, built on its first
	// call so that the many bases BConv needs do not pay for them.
	garnerOnce sync.Once
	garner     *garner
}

// NewBasis builds a Basis from a list of distinct primes.
func NewBasis(primes []uint64) (*Basis, error) {
	if len(primes) == 0 {
		return nil, fmt.Errorf("rns: empty basis")
	}
	seen := make(map[uint64]bool, len(primes))
	for _, q := range primes {
		if seen[q] {
			return nil, fmt.Errorf("rns: duplicate modulus %d", q)
		}
		seen[q] = true
	}
	moduli, err := modarith.NewModuli(primes)
	if err != nil {
		return nil, err
	}
	b := &Basis{
		Moduli:       moduli,
		Q:            big.NewInt(1),
		qHatInv:      make([]uint64, len(primes)),
		qHatInvShoup: make([]uint64, len(primes)),
		qHat:         make([]*big.Int, len(primes)),
	}
	for _, q := range primes {
		b.Q.Mul(b.Q, new(big.Int).SetUint64(q))
	}
	for i, m := range moduli {
		qi := new(big.Int).SetUint64(m.Q)
		hat := new(big.Int).Div(b.Q, qi)
		b.qHat[i] = hat
		hatModQi := new(big.Int).Mod(hat, qi).Uint64()
		b.qHatInv[i] = m.InvMod(hatModQi)
		b.qHatInvShoup[i] = m.ShoupPrecompute(b.qHatInv[i])
	}
	return b, nil
}

// MustBasis is NewBasis that panics on error.
func MustBasis(primes []uint64) *Basis {
	b, err := NewBasis(primes)
	if err != nil {
		panic(err)
	}
	return b
}

// L returns the number of limbs in the basis.
func (b *Basis) L() int { return len(b.Moduli) }

// Primes returns the raw prime list.
func (b *Basis) Primes() []uint64 {
	out := make([]uint64, len(b.Moduli))
	for i, m := range b.Moduli {
		out[i] = m.Q
	}
	return out
}

// Prefix returns a Basis over the first l primes — the level-l ciphertext
// modulus chain Q_l used after l < L rescalings.
func (b *Basis) Prefix(l int) (*Basis, error) {
	if l <= 0 || l > len(b.Moduli) {
		return nil, fmt.Errorf("rns: prefix length %d out of range [1, %d]", l, len(b.Moduli))
	}
	return NewBasis(b.Primes()[:l])
}

// Extend returns a new Basis of this basis' primes followed by extra —
// e.g. Q‖P for hybrid key switching.
func (b *Basis) Extend(extra []uint64) (*Basis, error) {
	return NewBasis(append(b.Primes(), extra...))
}

// QHatInv returns the step-1 BConv constant (Q/q_i)⁻¹ mod q_i.
func (b *Basis) QHatInv(i int) uint64 { return b.qHatInv[i] }

// Encode maps a non-negative big integer x (reduced mod Q) to its
// residues, one per limb.
func (b *Basis) Encode(x *big.Int) []uint64 {
	t := new(big.Int).Mod(x, b.Q) // also normalises negatives to [0, Q)
	out := make([]uint64, len(b.Moduli))
	r := new(big.Int)
	for i, m := range b.Moduli {
		out[i] = r.Mod(t, new(big.Int).SetUint64(m.Q)).Uint64()
	}
	return out
}

// Decode reconstructs x ∈ [0, Q) from residues via exact CRT:
// x = Σ_i [res_i · q̂_i⁻¹]_{q_i} · q̂_i  (mod Q).
func (b *Basis) Decode(res []uint64) *big.Int {
	if len(res) != len(b.Moduli) {
		panic("rns: residue count mismatch")
	}
	acc := new(big.Int)
	term := new(big.Int)
	for i, m := range b.Moduli {
		yi := m.MulMod(res[i]%m.Q, b.qHatInv[i])
		term.SetUint64(yi)
		term.Mul(term, b.qHat[i])
		acc.Add(acc, term)
	}
	return acc.Mod(acc, b.Q)
}

// DecodeCentered reconstructs x as a signed integer in [-Q/2, Q/2).
func (b *Basis) DecodeCentered(res []uint64) *big.Int {
	x := b.Decode(res)
	half := new(big.Int).Rsh(b.Q, 1)
	if x.Cmp(half) >= 0 {
		x.Sub(x, b.Q)
	}
	return x
}
