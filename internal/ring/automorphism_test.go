package ring

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestAutomorphismCoeffAgainstDirectEval(t *testing.T) {
	// τ_t(a)(X) must equal a(X^t) reduced mod X^N+1; verify by comparing
	// the NTT evaluations of both sides.
	rng := rand.New(rand.NewSource(30))
	n := 32
	r := testRing(t, n, 2)
	a := randPoly(rng, r)
	for _, gal := range []uint64{3, 5, 2*uint64(n) - 1} {
		out := r.NewPoly()
		if err := r.AutomorphismCoeff(a, out, gal); err != nil {
			t.Fatal(err)
		}
		for i, m := range r.Moduli {
			// Direct substitution oracle: evaluate both at ψ^(2j+1).
			naiveIn := r.NTTNaiveLimb(i, a.Coeffs[i])
			naiveOut := r.NTTNaiveLimb(i, out.Coeffs[i])
			for j := 0; j < n; j++ {
				// a(X^t) at exponent e = t(2j+1): find source index.
				e := (gal * uint64(2*j+1)) % uint64(2*n)
				jSrc := (e - 1) / 2
				if naiveOut[j] != naiveIn[jSrc] {
					t.Fatalf("gal=%d limb=%d slot=%d: eval mismatch", gal, i, j)
				}
				_ = m
			}
		}
	}
}

func TestAutomorphismNTTMatchesCoeff(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 64
	r := testRing(t, n, 2)
	a := randPoly(rng, r)
	for _, gal := range []uint64{3, 9, 5, 2*uint64(n) - 1} {
		// Path 1: automorphism in coefficient domain, then NTT.
		viaCoeff := r.NewPoly()
		if err := r.AutomorphismCoeff(a, viaCoeff, gal); err != nil {
			t.Fatal(err)
		}
		r.NTT(viaCoeff)

		// Path 2: NTT, then automorphism via precomputed slot index.
		viaNTT := a.CopyNew()
		r.NTT(viaNTT)
		idx, err := r.AutomorphismNTTIndex(gal)
		if err != nil {
			t.Fatal(err)
		}
		out := r.NewPoly()
		r.AutomorphismNTT(viaNTT, out, idx)

		if !out.Equal(viaCoeff) {
			t.Fatalf("gal=%d: NTT-domain automorphism != coeff-domain", gal)
		}
	}
}

func TestAutomorphismComposition(t *testing.T) {
	// τ_s ∘ τ_t = τ_{st mod 2N}.
	rng := rand.New(rand.NewSource(32))
	n := 32
	r := testRing(t, n, 1)
	a := randPoly(rng, r)
	s, tt := uint64(3), uint64(5)
	st := (s * tt) % uint64(2*n)

	tmp, out1, out2 := r.NewPoly(), r.NewPoly(), r.NewPoly()
	if err := r.AutomorphismCoeff(a, tmp, tt); err != nil {
		t.Fatal(err)
	}
	if err := r.AutomorphismCoeff(tmp, out1, s); err != nil {
		t.Fatal(err)
	}
	if err := r.AutomorphismCoeff(a, out2, st); err != nil {
		t.Fatal(err)
	}
	if !out1.Equal(out2) {
		t.Fatal("automorphism composition law violated")
	}
}

func TestAutomorphismIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r := testRing(t, 16, 1)
	a := randPoly(rng, r)
	out := r.NewPoly()
	if err := r.AutomorphismCoeff(a, out, 1); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(a) {
		t.Fatal("τ_1 is not the identity")
	}
}

func TestAutomorphismValidation(t *testing.T) {
	r := testRing(t, 16, 1)
	a, out := r.NewPoly(), r.NewPoly()
	if err := r.AutomorphismCoeff(a, out, 2); err == nil {
		t.Error("expected error for even galois element")
	}
	if err := r.AutomorphismCoeff(a, out, 33); err == nil {
		t.Error("expected error for galois element ≥ 2N")
	}
	if _, err := r.AutomorphismNTTIndex(4); err == nil {
		t.Error("expected error for even galois element")
	}
}

func TestGaloisElements(t *testing.T) {
	r := testRing(t, 16, 1)
	if g := r.GaloisElementForRotation(0); g != 1 {
		t.Errorf("rotation by 0 should be identity, got %d", g)
	}
	if g := r.GaloisElementForConjugation(); g != 31 {
		t.Errorf("conjugation element = %d want 31", g)
	}
	// 5^k mod 2N stays odd and in range.
	for k := -10; k <= 10; k++ {
		g := r.GaloisElementForRotation(k)
		if g%2 == 0 || g >= 32 {
			t.Errorf("rotation element %d for k=%d out of range", g, k)
		}
	}
	// Negative rotation normalisation: k and k + N/2 coincide.
	if r.GaloisElementForRotation(-3) != r.GaloisElementForRotation(-3+8) {
		t.Error("rotation normalisation broken")
	}
}

func TestSamplerDistributions(t *testing.T) {
	r := testRing(t, 1<<10, 2)
	s := NewSampler(42)

	u := r.NewPoly()
	s.Uniform(r, u)
	// Spot-check range and rough balance.
	for i, m := range r.Moduli {
		var above int
		for _, v := range u.Coeffs[i] {
			if v >= m.Q {
				t.Fatal("uniform sample out of range")
			}
			if v > m.Q/2 {
				above++
			}
		}
		if above < 400 || above > 624 {
			t.Errorf("uniform limb %d badly skewed: %d/1024 above q/2", i, above)
		}
	}

	tern := r.NewPoly()
	s.Ternary(r, tern)
	m0 := r.Moduli[0]
	counts := map[uint64]int{}
	for _, v := range tern.Coeffs[0] {
		counts[v]++
	}
	if len(counts) > 3 {
		t.Fatalf("ternary has %d distinct values", len(counts))
	}
	for k := range tern.Coeffs[0] {
		// consistency across limbs
		v0 := tern.Coeffs[0][k]
		v1 := tern.Coeffs[1][k]
		m1 := r.Moduli[1]
		var s0, s1 int64
		if v0 == m0.Q-1 {
			s0 = -1
		} else {
			s0 = int64(v0)
		}
		if v1 == m1.Q-1 {
			s1 = -1
		} else {
			s1 = int64(v1)
		}
		if s0 != s1 {
			t.Fatal("ternary limbs inconsistent")
		}
	}

	g := r.NewPoly()
	s.Gaussian(r, g)
	bound := uint64(20) // 6σ with σ=3.2
	for _, v := range g.Coeffs[0] {
		if v > bound && v < m0.Q-bound {
			t.Fatalf("gaussian sample %d outside ±%d", v, bound)
		}
	}
}

// TestSetSigned checks SetSigned against big.Int's Euclidean mod,
// including the multiples of q that once embedded as q instead of 0.
func TestSetSigned(t *testing.T) {
	r := testRing(t, 16, 2)
	s := NewSampler(1)
	p := r.NewPoly()
	q0, q1 := int64(r.Moduli[0].Q), int64(r.Moduli[1].Q)
	vals := []int64{0, 1, -1, 5, -100, q0, -q0, 2 * q0, -2 * q0, q1, -q1, -2 * q1,
		math.MinInt64 + 1, math.MinInt64, math.MaxInt64}
	s.SetSigned(r, p, vals)
	for i, m := range r.Moduli {
		for k, v := range vals {
			want := new(big.Int).Mod(big.NewInt(v), new(big.Int).SetUint64(m.Q)).Uint64()
			if p.Coeffs[i][k] != want {
				t.Fatalf("limb %d: SetSigned(%d) = %d, want %d", i, v, p.Coeffs[i][k], want)
			}
		}
	}
}
