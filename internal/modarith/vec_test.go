package modarith

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int, q uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % q
	}
	return v
}

func TestVecOpsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, q := range testPrimes {
		m := MustModulus(q)
		n := 257 // odd length to catch stride bugs
		a := randVec(rng, n, q)
		b := randVec(rng, n, q)
		dst := make([]uint64, n)

		m.VecAddMod(dst, a, b)
		for i := range dst {
			if dst[i] != m.AddMod(a[i], b[i]) {
				t.Fatalf("q=%d VecAddMod[%d] mismatch", q, i)
			}
		}
		m.VecSubMod(dst, a, b)
		for i := range dst {
			if dst[i] != m.SubMod(a[i], b[i]) {
				t.Fatalf("q=%d VecSubMod[%d] mismatch", q, i)
			}
		}
		m.VecNegMod(dst, a)
		for i := range dst {
			if dst[i] != m.NegMod(a[i]) {
				t.Fatalf("q=%d VecNegMod[%d] mismatch", q, i)
			}
		}
		for _, alg := range []ReduceAlgorithm{Barrett, Montgomery} {
			m.VecMulMod(dst, a, b, alg)
			for i := range dst {
				if dst[i] != m.BarrettMul(a[i], b[i]) {
					t.Fatalf("q=%d alg=%v VecMulMod[%d] mismatch", q, alg, i)
				}
			}
		}
	}
}

func TestVecMulModShoup(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := testPrimes[0]
	m := MustModulus(q)
	n := 128
	a := randVec(rng, n, q)
	w := randVec(rng, n, q)
	ws := m.ShoupPrecomputeVec(w)
	dst := make([]uint64, n)
	m.VecMulModShoup(dst, a, w, ws)
	for i := range dst {
		if dst[i] != m.BarrettMul(a[i], w[i]) {
			t.Fatalf("VecMulModShoup[%d] = %d want %d", i, dst[i], m.BarrettMul(a[i], w[i]))
		}
	}
}

func TestVecScalarOps(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := testPrimes[1]
	m := MustModulus(q)
	n := 100
	a := randVec(rng, n, q)
	c := rng.Uint64() % q

	dst := make([]uint64, n)
	m.VecScalarMulMod(dst, a, c)
	for i := range dst {
		if dst[i] != m.BarrettMul(a[i], c) {
			t.Fatalf("VecScalarMulMod[%d] mismatch", i)
		}
	}

	acc := randVec(rng, n, q)
	want := make([]uint64, n)
	for i := range want {
		want[i] = m.AddMod(acc[i], m.BarrettMul(a[i], c))
	}
	m.VecScalarMulAddMod(acc, a, c)
	for i := range acc {
		if acc[i] != want[i] {
			t.Fatalf("VecScalarMulAddMod[%d] mismatch", i)
		}
	}
}

func TestVecMulAddMod(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := testPrimes[0]
	m := MustModulus(q)
	n := 64
	a := randVec(rng, n, q)
	b := randVec(rng, n, q)
	acc := randVec(rng, n, q)
	want := make([]uint64, n)
	for i := range want {
		want[i] = m.AddMod(acc[i], m.BarrettMul(a[i], b[i]))
	}
	m.VecMulAddMod(acc, a, b)
	for i := range acc {
		if acc[i] != want[i] {
			t.Fatalf("VecMulAddMod[%d] mismatch", i)
		}
	}
}

func TestVecAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	q := testPrimes[0]
	m := MustModulus(q)
	n := 50
	a := randVec(rng, n, q)
	b := randVec(rng, n, q)
	want := make([]uint64, n)
	m.VecAddMod(want, a, b)
	aCopy := append([]uint64(nil), a...)
	m.VecAddMod(aCopy, aCopy, b) // dst aliases a
	for i := range want {
		if aCopy[i] != want[i] {
			t.Fatalf("aliased VecAddMod[%d] mismatch", i)
		}
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	m := MustModulus(97)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	m.VecAddMod(make([]uint64, 3), make([]uint64, 4), make([]uint64, 4))
}

func TestVecMontgomeryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	q := testPrimes[2]
	m := MustModulus(q)
	a := randVec(rng, 77, q)
	mont := make([]uint64, len(a))
	back := make([]uint64, len(a))
	m.VecToMontgomery(mont, a)
	m.VecFromMontgomery(back, mont)
	for i := range a {
		if back[i] != a[i] {
			t.Fatalf("vec Montgomery round trip[%d] mismatch", i)
		}
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	for _, n := range []uint64{1 << 10, 1 << 13, 1 << 16} {
		primes, err := GenerateNTTPrimes(28, n, 10)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		seen := map[uint64]bool{}
		for _, q := range primes {
			if !IsPrime(q) {
				t.Fatalf("N=%d: %d not prime", n, q)
			}
			if q%(2*n) != 1 {
				t.Fatalf("N=%d: %d not ≡ 1 mod 2N", n, q)
			}
			if q>>27 != 1 {
				t.Fatalf("N=%d: %d not 28 bits", n, q)
			}
			if seen[q] {
				t.Fatalf("N=%d: duplicate prime %d", n, q)
			}
			seen[q] = true
		}
	}
}

func TestGenerateNTTPrimesAvoiding(t *testing.T) {
	n := uint64(1 << 12)
	base, err := GenerateNTTPrimes(28, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	aux, err := GenerateNTTPrimesAvoiding(28, n, 5, base)
	if err != nil {
		t.Fatal(err)
	}
	baseSet := map[uint64]bool{}
	for _, q := range base {
		baseSet[q] = true
	}
	for _, q := range aux {
		if baseSet[q] {
			t.Fatalf("auxiliary prime %d collides with base", q)
		}
	}
}

func TestGenerateNTTPrimesErrors(t *testing.T) {
	if _, err := GenerateNTTPrimes(5, 1<<10, 1); err == nil {
		t.Error("expected error for tiny bit size")
	}
	if _, err := GenerateNTTPrimes(28, 1000, 1); err == nil {
		t.Error("expected error for non-power-of-two N")
	}
	// Asking for more 14-bit primes ≡ 1 mod 2^13 than exist must fail
	// cleanly rather than loop forever.
	if _, err := GenerateNTTPrimes(14, 1<<12, 100); err == nil {
		t.Error("expected exhaustion error")
	}
}

func TestNewModuli(t *testing.T) {
	primes, err := GenerateNTTPrimes(28, 1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	mods, err := NewModuli(primes)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 3 {
		t.Fatalf("got %d moduli", len(mods))
	}
	if _, err := NewModuli([]uint64{4}); err == nil {
		t.Error("expected error for composite")
	}
}

func TestVecReduceSigned(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, q := range testPrimes {
		m := MustModulus(q)
		qi := int64(q)
		a := []int64{0, 1, -1, qi, -qi, 2 * qi, -2 * qi, qi - 1, 1 - qi,
			math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
		for range 64 {
			a = append(a, int64(rng.Uint64()))
		}
		bq := new(big.Int).SetUint64(q)
		check := func(a []int64, bound uint64) {
			dst := make([]uint64, len(a))
			m.VecReduceSigned(dst, a, bound)
			for i, v := range a {
				if want := new(big.Int).Mod(big.NewInt(v), bq).Uint64(); dst[i] != want {
					t.Fatalf("q=%d bound=%d: VecReduceSigned(%d) = %d, want %d", q, bound, v, dst[i], want)
				}
			}
		}
		check(a, math.MaxUint64)
		// The masked-add path: every |a[i]| ≤ q − 1.
		check([]int64{0, 1, -1, qi - 1, 1 - qi, qi / 2, -qi / 2}, q-1)
	}
}
