package ckks

import (
	"fmt"

	"cross/internal/ring"
)

// Ciphertext is an RLWE pair (c0, c1) with c0 + c1·s ≈ m·scale, stored
// in the NTT domain at some level of the modulus chain.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Level  int
	Scale  float64
}

// CopyNew deep-copies the ciphertext.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	return &Ciphertext{C0: ct.C0.CopyNew(), C1: ct.C1.CopyNew(), Level: ct.Level, Scale: ct.Scale}
}

// Encryptor encrypts plaintexts under a public key. Like its seeded
// sampler, an Encryptor is not safe for concurrent use.
type Encryptor struct {
	p   *Parameters
	pk  *PublicKey
	smp *ring.Sampler

	// u is the ephemeral key; its limbs are borrowed from the ring's
	// arena for one Encrypt, which so allocates only its ciphertext.
	u ring.Poly
}

// NewEncryptor returns a seeded public-key encryptor.
func NewEncryptor(p *Parameters, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{p: p, pk: pk, smp: ring.NewSampler(seed)}
}

// Encrypt produces a fresh ciphertext at the plaintext's level:
// (b·u + e0 + pt, a·u + e1).
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	p := e.p
	rq := p.RingQP
	lvl := pt.Level
	n := p.N()

	u := &e.u
	rq.BorrowPoly(u, lvl+1)
	defer rq.ReturnPoly(u)
	e.smp.Ternary(rq, u)
	rq.NTT(u)

	// The errors are sampled straight into c0 and c1; the sums are
	// exact mod q, so their order does not change the ciphertext.
	c0 := ring.NewPoly(lvl+1, n)
	e.smp.Gaussian(rq, c0)
	rq.NTT(c0)
	c1 := ring.NewPoly(lvl+1, n)
	e.smp.Gaussian(rq, c1)
	rq.NTT(c1)

	rq.MulCoeffsAndAdd(e.pk.B, u, c0)
	rq.Add(c0, pt.Value, c0)
	rq.MulCoeffsAndAdd(e.pk.A, u, c1)

	return &Ciphertext{C0: c0, C1: c1, Level: lvl, Scale: pt.Scale}
}

// Decryptor recovers plaintexts with the secret key.
type Decryptor struct {
	p  *Parameters
	sk *SecretKey
}

// NewDecryptor returns a decryptor.
func NewDecryptor(p *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{p: p, sk: sk}
}

// Decrypt computes c0 + c1·s.
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	rq := d.p.RingQP
	lvl := ct.Level
	m := ring.NewPoly(lvl+1, d.p.N())
	rq.MulCoeffs(ct.C1, d.sk.Value, m)
	rq.Add(m, ct.C0, m)
	return &Plaintext{Value: m, Level: lvl, Scale: ct.Scale}
}

// checkCompatible validates that two ciphertexts can be combined.
func checkCompatible(a, b *Ciphertext) error {
	if a.Level != b.Level {
		return fmt.Errorf("ckks: level mismatch %d vs %d", a.Level, b.Level)
	}
	relDiff := a.Scale/b.Scale - 1
	if relDiff < -1e-9 || relDiff > 1e-9 {
		return fmt.Errorf("ckks: scale mismatch %g vs %g", a.Scale, b.Scale)
	}
	return nil
}
