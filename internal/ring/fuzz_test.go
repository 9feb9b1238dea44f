package ring

import (
	"math/rand"
	"testing"

	"cross/internal/modarith"
)

// Fuzzing pins the lazy-reduction transforms to the retained strict
// references across the modulus generator's whole output range
// (modarith/primes.go): for every degree/width combination and any
// coefficient vector, NTTInPlace/INTTInPlace must be bit-identical to
// NTTInPlaceStrict/INTTInPlaceStrict, and the round trip must be the
// identity.

// fuzzRings builds one ring per (degree, prime width) combination —
// widths span the paper's 28-bit primes up to the 60-bit ceiling where
// the lazy bounds are tightest, degrees cover every specialized stage
// shape (radix-4 opening/closing, fused middle, n=8 fallback) and, at
// n = 4096, the in-register 16-word groups over many blocks.
func fuzzRings(tb testing.TB) []*Ring {
	tb.Helper()
	var rings []*Ring
	for _, n := range []int{8, 16, 32, 256, 4096} {
		for _, bits := range []uint{28, 45, 60} {
			primes, err := modarith.GenerateNTTPrimes(bits, uint64(n), 1)
			if err != nil {
				tb.Fatal(err)
			}
			rings = append(rings, MustRing(n, primes))
		}
	}
	return rings
}

func FuzzNTTLazyVsStrict(f *testing.F) {
	rings := fuzzRings(f)
	f.Add(uint8(0), int64(1))
	f.Add(uint8(5), int64(-7))
	f.Add(uint8(255), int64(0))
	f.Fuzz(func(t *testing.T, ridx uint8, seed int64) {
		rg := rings[int(ridx)%len(rings)]
		n := rg.N
		q := rg.Moduli[0].Q
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % q
		}
		lazy := append([]uint64(nil), a...)
		strict := append([]uint64(nil), a...)
		rg.NTTInPlace(0, lazy)
		rg.NTTInPlaceStrict(0, strict)
		for i := range lazy {
			if lazy[i] != strict[i] {
				t.Fatalf("n=%d q=%d: forward lazy/strict diverge at %d: %d vs %d", n, q, i, lazy[i], strict[i])
			}
			if lazy[i] >= q {
				t.Fatalf("n=%d q=%d: forward output %d not reduced: %d", n, q, i, lazy[i])
			}
		}
		rg.INTTInPlace(0, lazy)
		rg.INTTInPlaceStrict(0, strict)
		for i := range lazy {
			if lazy[i] != strict[i] {
				t.Fatalf("n=%d q=%d: inverse lazy/strict diverge at %d: %d vs %d", n, q, i, lazy[i], strict[i])
			}
			if lazy[i] != a[i] {
				t.Fatalf("n=%d q=%d: round trip diverges at %d: %d vs %d", n, q, i, lazy[i], a[i])
			}
		}
	})
}
