package modarith

import (
	"math/big"
	"math/rand"
	"testing"
)

func FuzzReductionsAgree(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), ^uint64(0))
	f.Add(uint64(268369920), uint64(268369920))
	m := MustModulus(268369921)
	f.Fuzz(func(t *testing.T, a, b uint64) {
		a %= m.Q
		b %= m.Q
		barrett := m.BarrettMul(a, b)
		mont := m.MontgomeryMulFull(a, m.ToMontgomery(b))
		shoup := m.ShoupMulFull(a, b, m.ShoupPrecompute(b))
		if barrett != mont || mont != shoup {
			t.Fatalf("reductions disagree on %d·%d: barrett=%d mont=%d shoup=%d",
				a, b, barrett, mont, shoup)
		}
	})
}

// FuzzReduceWide checks ReduceWide against a math/big oracle over
// fuzzModuli, so both the one-word (hi == 0) branch and the 128-bit
// path run at every width from the paper's 28-bit primes to 60 bits.
func FuzzReduceWide(f *testing.F) {
	moduli := fuzzModuli(f)
	f.Add(uint8(0), uint64(0), uint64(0))
	f.Add(uint8(7), ^uint64(0), ^uint64(0))
	f.Add(uint8(1), uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, midx uint8, hi, lo uint64) {
		m := moduli[int(midx)%len(moduli)]
		x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		x.Add(x, new(big.Int).SetUint64(lo))
		want := x.Mod(x, new(big.Int).SetUint64(m.Q)).Uint64()
		if got := m.ReduceWide(hi, lo); got != want {
			t.Fatalf("q=%d: ReduceWide(%d, %d) = %d want %d", m.Q, hi, lo, got, want)
		}
		if hi == 0 {
			if got := m.Reduce(lo); got != want {
				t.Fatalf("q=%d: Reduce(%d) = %d want %d", m.Q, lo, got, want)
			}
		}
	})
}

// fuzzModuli spans the generator's width range for the lazy-kernel
// fuzz targets (28-bit paper primes up to the 60-bit lazy-bound
// ceiling), all drawn from primes.go.
func fuzzModuli(tb testing.TB) []*Modulus {
	tb.Helper()
	var out []*Modulus
	for _, bits := range []uint{28, 40, 50, 60} {
		primes, err := GenerateNTTPrimes(bits, 1<<10, 2)
		if err != nil {
			tb.Fatal(err)
		}
		for _, q := range primes {
			out = append(out, MustModulus(q))
		}
	}
	return out
}

// FuzzVecMulModShoupLazyVsStrict pins the lazy Shoup kernel (plus its
// single closing correction) and the unrolled public kernel to the
// retained strict reference across random moduli and vectors.
func FuzzVecMulModShoupLazyVsStrict(f *testing.F) {
	moduli := fuzzModuli(f)
	f.Add(uint8(0), int64(1), uint8(7))
	f.Add(uint8(3), int64(-9), uint8(0))
	f.Add(uint8(255), int64(12345), uint8(255))
	f.Fuzz(func(t *testing.T, midx uint8, seed int64, nRaw uint8) {
		m := moduli[int(midx)%len(moduli)]
		n := int(nRaw)%96 + 1 // cover all unroll tails
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint64, n)
		w := make([]uint64, n)
		for i := range a {
			a[i], w[i] = rng.Uint64()%m.Q, rng.Uint64()%m.Q
		}
		ws := m.ShoupPrecomputeVec(w)

		want := make([]uint64, n)
		m.VecMulModShoupStrict(want, a, w, ws)

		got := make([]uint64, n)
		m.VecMulModShoup(got, a, w, ws)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("q=%d n=%d: VecMulModShoup[%d] = %d, strict %d", m.Q, n, i, got[i], want[i])
			}
		}

		lazy := make([]uint64, n)
		m.VecMulModShoupLazy(lazy, a, w, ws)
		m.VecCorrectLazy(lazy, lazy)
		for i := range lazy {
			if lazy[i] != want[i] {
				t.Fatalf("q=%d n=%d: lazy+correct [%d] = %d, strict %d", m.Q, n, i, lazy[i], want[i])
			}
		}
	})
}

// FuzzLazyAddSubBounds checks the chaining contract of the lazy
// add/sub kernels: [0, 2q) in, [0, 2q) out, correct residues.
func FuzzLazyAddSubBounds(f *testing.F) {
	moduli := fuzzModuli(f)
	f.Add(uint8(0), uint64(0), uint64(0))
	f.Add(uint8(9), ^uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, midx uint8, x, y uint64) {
		m := moduli[int(midx)%len(moduli)]
		twoQ := 2 * m.Q
		a := []uint64{x % twoQ}
		b := []uint64{y % twoQ}
		sum := make([]uint64, 1)
		m.VecAddModLazy(sum, a, b)
		if sum[0] >= twoQ {
			t.Fatalf("q=%d: lazy add out of range: %d", m.Q, sum[0])
		}
		if got, want := m.Reduce(sum[0]), m.AddMod(m.Reduce(a[0]), m.Reduce(b[0])); got != want {
			t.Fatalf("q=%d: lazy add wrong residue: %d vs %d", m.Q, got, want)
		}
		diff := make([]uint64, 1)
		m.VecSubModLazy(diff, a, b)
		if diff[0] >= twoQ {
			t.Fatalf("q=%d: lazy sub out of range: %d", m.Q, diff[0])
		}
		if got, want := m.Reduce(diff[0]), m.SubMod(m.Reduce(a[0]), m.Reduce(b[0])); got != want {
			t.Fatalf("q=%d: lazy sub wrong residue: %d vs %d", m.Q, got, want)
		}
	})
}
