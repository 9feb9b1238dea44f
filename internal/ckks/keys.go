package ckks

import (
	"fmt"
	"slices"

	"cross/internal/ring"
)

// SecretKey is a ternary secret s embedded in every limb of Q∪P, stored
// in the NTT domain.
type SecretKey struct {
	Value *ring.Poly
}

// PublicKey is the RLWE pair (b, a) = (−a·s + e, a) over Q at the top
// level, NTT domain.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey is a hybrid key-switching key: one (b_j, a_j) RLWE pair
// over Q∪P per digit, encrypting P·q̃_j·s′ under s, where q̃_j is the
// CRT idempotent of digit block j (≡ 1 mod the block's primes, ≡ 0
// elsewhere) — so P·q̃_j reduces to "P mod q_i inside the block, zero
// outside" limb-wise.
type SwitchingKey struct {
	b, a []keyPoly // indexed by digit, each with L+Alpha limbs
}

// keyPoly is one switching-key polynomial over Q∪P in the NTT domain,
// stored in 32-bit words, the paper's layout for its 28-bit residues:
// coefficient k of limb i is lo[i][k] | hi[i][k]<<32. hi is nil unless
// some prime of Q∪P is 2^32 or more, so every 28-bit set keeps half the
// bytes of a 64-bit key resident and streams half per key switch.
type keyPoly struct {
	lo, hi [][]uint32
}

// newKeyPoly stores p in key words, with the high halves when wide.
func newKeyPoly(p *ring.Poly, wide bool) keyPoly {
	kp := keyPoly{lo: newWords(len(p.Coeffs), p.N())}
	if wide {
		kp.hi = newWords(len(p.Coeffs), p.N())
	}
	for i, limb := range p.Coeffs {
		lo := kp.lo[i]
		for k, c := range limb {
			lo[k] = uint32(c)
		}
		if wide {
			hi := kp.hi[i]
			for k, c := range limb {
				hi[k] = uint32(c >> 32)
			}
		}
	}
	return kp
}

// newWords allocates l limbs of n words in one backing array.
func newWords(l, n int) [][]uint32 {
	backing := make([]uint32, l*n)
	limbs := make([][]uint32, l)
	for i := range limbs {
		limbs[i], backing = backing[:n:n], backing[n:]
	}
	return limbs
}

// RelinearizationKey switches s² → s.
type RelinearizationKey struct{ SwitchingKey }

// GaloisKey switches τ_g(s) → s for one Galois element g.
type GaloisKey struct {
	SwitchingKey
	GaloisEl uint64
}

// KeyGenerator samples keys for a parameter set. Deterministic given
// the seed — the reproduction favours replayable experiments over
// cryptographic key hygiene (DESIGN.md §2).
type KeyGenerator struct {
	p   *Parameters
	smp *ring.Sampler
}

// NewKeyGenerator returns a seeded key generator.
func NewKeyGenerator(p *Parameters, seed int64) *KeyGenerator {
	return &KeyGenerator{p: p, smp: ring.NewSampler(seed)}
}

// GenSecretKey samples a ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	rq := kg.p.RingQP
	s := rq.NewPoly()
	kg.smp.Ternary(rq, s)
	rq.NTT(s)
	return &SecretKey{Value: s}
}

// GenPublicKey samples the encryption key for sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	rq := kg.p.RingQP
	lvl := kg.p.MaxLevel()
	a := ring.NewPoly(lvl+1, kg.p.N())
	kg.smp.Uniform(rq, a) // uniform is NTT-domain-invariant

	e := ring.NewPoly(lvl+1, kg.p.N())
	kg.smp.Gaussian(rq, e)
	rq.NTT(e)

	b := ring.NewPoly(lvl+1, kg.p.N())
	rq.MulCoeffs(a, sk.Value, b) // a·s (limb counts differ; min used)
	rq.Neg(b, b)
	rq.Add(b, e, b)
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey builds the hybrid key encrypting sPrime (NTT, L+Alpha
// limbs) under sk. Each digit is sampled into one set of full-width
// temporaries and then narrowed into its key words.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, sPrime *ring.Poly) SwitchingKey {
	p := kg.p
	rq := p.RingQP
	total := p.L + p.Alpha
	dnum := p.NumDigits(p.MaxLevel())
	wide := slices.Max(rq.Primes()) >= 1<<32
	swk := SwitchingKey{b: make([]keyPoly, dnum), a: make([]keyPoly, dnum)}
	a, e, b := ring.NewPoly(total, p.N()), ring.NewPoly(total, p.N()), ring.NewPoly(total, p.N())
	for j := 0; j < dnum; j++ {
		kg.smp.Uniform(rq, a)
		kg.smp.Gaussian(rq, e)
		rq.NTT(e)

		rq.MulCoeffs(a, sk.Value, b)
		rq.Neg(b, b)
		rq.Add(b, e, b)

		// + P·q̃_j·s′: limb-wise this is (P mod q_i)·s′ inside digit
		// block j and zero elsewhere (including all special limbs).
		lo, hi, _ := p.digitRange(j, p.MaxLevel())
		for i := lo; i < hi; i++ {
			m := rq.Moduli[i]
			w := p.PModQ(i)
			ws := m.ShoupPrecompute(w)
			for k := 0; k < p.N(); k++ {
				b.Coeffs[i][k] = m.AddMod(b.Coeffs[i][k],
					m.ShoupMulFull(sPrime.Coeffs[i][k], w, ws))
			}
		}
		swk.b[j], swk.a[j] = newKeyPoly(b, wide), newKeyPoly(a, wide)
	}
	return swk
}

// GenRelinearizationKey builds the s² → s key.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	rq := kg.p.RingQP
	s2 := rq.NewPoly()
	rq.MulCoeffs(sk.Value, sk.Value, s2)
	return &RelinearizationKey{kg.genSwitchingKey(sk, s2)}
}

// GenGaloisKey builds the τ_g(s) → s key for one Galois element.
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, galEl uint64) (*GaloisKey, error) {
	rq := kg.p.RingQP
	idx, err := rq.AutomorphismNTTIndex(galEl)
	if err != nil {
		return nil, err
	}
	sTau := rq.NewPoly()
	rq.AutomorphismNTT(sk.Value, sTau, idx)
	return &GaloisKey{SwitchingKey: kg.genSwitchingKey(sk, sTau), GaloisEl: galEl}, nil
}

// GenRotationKeys builds Galois keys for a set of slot rotations.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, rotations []int) (map[uint64]*GaloisKey, error) {
	out := make(map[uint64]*GaloisKey, len(rotations))
	for _, k := range rotations {
		g := kg.p.RingQP.GaloisElementForRotation(k)
		if _, done := out[g]; done {
			continue
		}
		gk, err := kg.GenGaloisKey(sk, g)
		if err != nil {
			return nil, fmt.Errorf("ckks: rotation %d: %w", k, err)
		}
		out[g] = gk
	}
	return out, nil
}
