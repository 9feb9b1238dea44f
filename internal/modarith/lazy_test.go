package modarith

import (
	"math/rand"
	"testing"

	"cross/internal/simd"
)

// lazyTestModuli spans the supported width range: the paper's 28-bit
// BAT prime, a mid-width prime, and a near-top 60-bit prime (Harvey's
// bound is tightest there).
func lazyTestModuli(t testing.TB) []*Modulus {
	t.Helper()
	var out []*Modulus
	for _, bits := range []uint{28, 45, 60} {
		primes, err := GenerateNTTPrimes(bits, 1<<10, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, MustModulus(primes[0]))
	}
	return out
}

// TestLazyKernelsMatchStrict drives a lazy pipeline (mul → add → sub →
// correct) against the strict kernels element-wise over every test
// modulus: after the single closing correction the lazy chain must be
// bit-identical to the strict chain.
func TestLazyKernelsMatchStrict(t *testing.T) {
	const n = 257 // odd length exercises the unroll tails
	for _, m := range lazyTestModuli(t) {
		rng := rand.New(rand.NewSource(int64(m.Q)))
		a := make([]uint64, n)
		b := make([]uint64, n)
		w := make([]uint64, n)
		for i := range a {
			a[i], b[i], w[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q, rng.Uint64()%m.Q
		}
		ws := m.ShoupPrecomputeVec(w)

		// Strict pipeline, fully reduced at every step.
		sm := make([]uint64, n)
		m.VecMulModShoupStrict(sm, a, w, ws)
		ss := make([]uint64, n)
		m.VecAddMod(ss, sm, b)
		sd := make([]uint64, n)
		m.VecSubMod(sd, ss, a)

		// Lazy pipeline: everything stays in [0, 2q) until the end.
		lm := make([]uint64, n)
		m.VecMulModShoupLazy(lm, a, w, ws)
		for i := range lm {
			if lm[i] >= 2*m.Q {
				t.Fatalf("q=%d: lazy mul out of [0,2q) at %d: %d", m.Q, i, lm[i])
			}
		}
		ls := make([]uint64, n)
		m.VecAddModLazy(ls, lm, b)
		ld := make([]uint64, n)
		m.VecSubModLazy(ld, ls, a)
		m.VecCorrectLazy(ld, ld)

		for i := range sd {
			if sd[i] != ld[i] {
				t.Fatalf("q=%d: lazy pipeline diverges at %d: strict %d lazy %d", m.Q, i, sd[i], ld[i])
			}
		}
	}
}

// TestVecMulModShoupMatchesStrict pins the unrolled public kernel to
// the retained strict reference.
func TestVecMulModShoupMatchesStrict(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 64, 255} {
		for _, m := range lazyTestModuli(t) {
			rng := rand.New(rand.NewSource(int64(n)))
			a := make([]uint64, n)
			w := make([]uint64, n)
			for i := range a {
				a[i], w[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q
			}
			ws := m.ShoupPrecomputeVec(w)
			got := make([]uint64, n)
			want := make([]uint64, n)
			m.VecMulModShoup(got, a, w, ws)
			m.VecMulModShoupStrict(want, a, w, ws)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d: VecMulModShoup[%d] = %d, strict %d", n, m.Q, i, got[i], want[i])
				}
			}
		}
	}
}

// TestVecScalarMulModShoupMatchesScalarLoop pins the unrolled scalar
// kernel against per-element ShoupMulFull.
func TestVecScalarMulModShoupMatchesScalarLoop(t *testing.T) {
	for _, m := range lazyTestModuli(t) {
		const n = 133
		rng := rand.New(rand.NewSource(77))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % m.Q
		}
		w := rng.Uint64() % m.Q
		ws := m.ShoupPrecompute(w)
		got := make([]uint64, n)
		m.VecScalarMulModShoup(got, a, w, ws)
		for i := range got {
			if want := m.ShoupMulFull(a[i], w, ws); got[i] != want {
				t.Fatalf("q=%d: VecScalarMulModShoup[%d] = %d, want %d", m.Q, i, got[i], want)
			}
		}
	}
}

// TestVecKernelsZeroAllocs pins the allocation-free contract of the
// vector kernels, on the AVX-512 path where the host has it (the
// modulus is below 2^31, so every twin's bound admits it).
func TestVecKernelsZeroAllocs(t *testing.T) {
	t.Logf("kernel backend: %s", simd.Kernels())
	m := lazyTestModuli(t)[0]
	if m.Q >= 1<<31 {
		t.Fatalf("q=%d is outside the AVX-512 kernels' bounds", m.Q)
	}
	const n = 1 << 10
	rng := rand.New(rand.NewSource(9))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i], b[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q
	}
	ws := m.ShoupPrecomputeVec(b)
	dst := make([]uint64, n)
	for name, f := range map[string]func(){
		"VecAddMod":               func() { m.VecAddMod(dst, a, b) },
		"VecSubMod":               func() { m.VecSubMod(dst, a, b) },
		"VecMulModShoup":          func() { m.VecMulModShoup(dst, a, b, ws) },
		"VecMulModBarrett":        func() { m.VecMulMod(dst, a, b, Barrett) },
		"VecScalarMulModShoup":    func() { m.VecScalarMulModShoup(dst, a, b[0], ws[0]) },
		"VecSubScalarMulModShoup": func() { m.VecSubScalarMulModShoup(dst, a, b, b[0], ws[0]) },
		"VecReduceCentered":       func() { m.VecReduceCentered(dst, a, m.Q) },
		"VecAddModLazy":           func() { m.VecAddModLazy(dst, a, b) },
		"VecSubModLazy":           func() { m.VecSubModLazy(dst, a, b) },
		"VecMulModShoupLazy":      func() { m.VecMulModShoupLazy(dst, a, b, ws) },
		"VecCorrectLazy":          func() { m.VecCorrectLazy(dst, a) },
	} {
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Fatalf("%s allocates %.2f/op, want 0", name, avg)
		}
	}
}

// BenchmarkVecMulModShoup times the unrolled strict kernel (the gated
// VecModMul datapoint).
func BenchmarkVecMulModShoup(b *testing.B) {
	m := MustModulus(268369921)
	const n = 1 << 13
	rng := rand.New(rand.NewSource(2))
	a := make([]uint64, n)
	w := make([]uint64, n)
	for i := range a {
		a[i], w[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q
	}
	ws := m.ShoupPrecomputeVec(w)
	dst := make([]uint64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.VecMulModShoup(dst, a, w, ws)
	}
}

// BenchmarkVecMulModShoupLazy times the deferred-correction variant.
func BenchmarkVecMulModShoupLazy(b *testing.B) {
	m := MustModulus(268369921)
	const n = 1 << 13
	rng := rand.New(rand.NewSource(2))
	a := make([]uint64, n)
	w := make([]uint64, n)
	for i := range a {
		a[i], w[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q
	}
	ws := m.ShoupPrecomputeVec(w)
	dst := make([]uint64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.VecMulModShoupLazy(dst, a, w, ws)
	}
}
