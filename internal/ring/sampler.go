package ring

import (
	"math"
	"math/rand"
)

// Sampler draws the random polynomials RLWE needs: uniform masks,
// ternary secrets, and discrete-Gaussian errors (§II-A). The source is
// an explicit seeded PRNG so that experiments are reproducible run to
// run; the reproduction targets performance fidelity, not cryptographic
// key generation, exactly as the paper's artifact does. A Sampler is not
// safe for concurrent use.
type Sampler struct {
	rng   *rand.Rand
	sigma float64
	vals  []int64 // Ternary's and Gaussian's draws, reused across calls
}

// DefaultSigma is the RLWE error standard deviation used by the
// homomorphic encryption standard and by OpenFHE's default profile.
const DefaultSigma = 3.2

// NewSampler returns a Sampler seeded deterministically.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed)), sigma: DefaultSigma}
}

// NewSamplerWithSigma overrides the Gaussian parameter.
func NewSamplerWithSigma(seed int64, sigma float64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed)), sigma: sigma}
}

// Uniform fills p with coefficients uniform in [0, q_i) per limb.
func (s *Sampler) Uniform(r *Ring, p *Poly) {
	for i := 0; i <= p.Level(); i++ {
		m := r.Moduli[i]
		for k := range p.Coeffs[i] {
			p.Coeffs[i][k] = m.Reduce(s.rng.Uint64())
		}
	}
}

// Ternary fills p with a ternary polynomial (coefficients in {-1,0,1},
// uniform) represented consistently across all limbs.
func (s *Sampler) Ternary(r *Ring, p *Poly) {
	vals := s.draws(p.N())
	for k := range vals {
		vals[k] = int64(s.rng.Intn(3)) - 1
	}
	s.setSigned(r, p, vals, 1)
}

// Gaussian fills p with a rounded-Gaussian error polynomial, the same
// small value embedded consistently in every limb.
func (s *Sampler) Gaussian(r *Ring, p *Poly) {
	vals := s.draws(p.N())
	bound := int64(math.Ceil(6 * s.sigma)) // 6σ tail cut, standard practice
	for k := range vals {
		v := int64(math.Round(s.rng.NormFloat64() * s.sigma))
		if v > bound {
			v = bound
		}
		if v < -bound {
			v = -bound
		}
		vals[k] = v
	}
	s.setSigned(r, p, vals, uint64(bound))
}

// draws returns the sampler's n-value draw buffer.
func (s *Sampler) draws(n int) []int64 {
	if cap(s.vals) < n {
		s.vals = make([]int64, n)
	}
	return s.vals[:n]
}

// SetSigned embeds signed integers into all limbs of p: limb i holds
// vals[k] mod q_i in [0, q_i).
func (s *Sampler) SetSigned(r *Ring, p *Poly, vals []int64) {
	s.setSigned(r, p, vals, math.MaxUint64)
}

// setSigned is SetSigned for values of magnitude at most bound.
func (s *Sampler) setSigned(r *Ring, p *Poly, vals []int64, bound uint64) {
	for i := 0; i <= p.Level(); i++ {
		r.Moduli[i].VecReduceSigned(p.Coeffs[i][:len(vals)], vals, bound)
	}
}
