package ring

import (
	"math/rand"
	"testing"

	"cross/internal/modarith"
	"cross/internal/simd"
)

// TestKernelBackend logs which NTT backend this binary runs, and says
// so when the assembly twins cannot be exercised here.
func TestKernelBackend(t *testing.T) {
	t.Logf("kernel backend: %s", simd.Kernels())
	if !simd.AVX512 {
		t.Skip("no AVX-512: assembly twins not exercised")
	}
}

// withKernels runs f with simd.AVX512 set to on and restores it.
func withKernels(on bool, f func()) {
	saved := simd.AVX512
	simd.AVX512 = on
	defer func() { simd.AVX512 = saved }()
	f()
}

// twinRings builds one ring per (degree, prime width) the AVX-512
// transforms accept: degrees from the smallest (one 16-word group, no
// generic stage) to logN 14, widths up to the 30-bit limit.
func twinRings(tb testing.TB) []*Ring {
	tb.Helper()
	var rings []*Ring
	for _, n := range []int{16, 32, 64, 256, 4096, 16384} {
		for _, bits := range []uint{28, 29, 30} {
			primes, err := modarith.GenerateNTTPrimes(bits, uint64(n), 1)
			if err != nil {
				tb.Fatal(err)
			}
			rings = append(rings, MustRing(n, primes))
		}
	}
	return rings
}

// FuzzNTTAVX512VsGo requires the assembly NTT and INTT to match their
// pure-Go twins bit for bit, forward, inverse and round trip, and pins
// the dispatch bound q < 2^30. The top flag fills the input with q−1,
// the largest residue.
func FuzzNTTAVX512VsGo(f *testing.F) {
	if !simd.AVX512 {
		f.Skip("no AVX-512: assembly twins not exercised")
	}
	rings := twinRings(f)
	for _, rg := range rings {
		if !vectorNTT(rg.N, rg.Moduli[0].Q) {
			f.Fatalf("n=%d q=%d: AVX-512 NTT not selected", rg.N, rg.Moduli[0].Q)
		}
	}
	// A 31-bit prime puts the lazy bound 4q past 2^32: pure Go runs.
	wide, err := modarith.GenerateNTTPrimes(31, 256, 1)
	if err != nil {
		f.Fatal(err)
	}
	if vectorNTT(256, wide[0]) {
		f.Fatalf("31-bit prime %d took the AVX-512 NTT", wide[0])
	}
	f.Add(uint8(0), int64(1), false)
	f.Add(uint8(4), int64(-7), true)
	f.Add(uint8(13), int64(3), false)
	f.Add(uint8(17), int64(0), false)
	f.Fuzz(func(t *testing.T, ridx uint8, seed int64, top bool) {
		rg := rings[int(ridx)%len(rings)]
		n, q := rg.N, rg.Moduli[0].Q
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint64, n)
		for i := range a {
			a[i] = q - 1
			if !top {
				a[i] = rng.Uint64() % q
			}
		}
		check := func(what string, vec, ref []uint64) {
			t.Helper()
			for i := range vec {
				if vec[i] != ref[i] {
					t.Fatalf("n=%d q=%d: %s AVX-512/Go diverge at %d: %d vs %d", n, q, what, i, vec[i], ref[i])
				}
			}
		}
		vec := append([]uint64(nil), a...)
		ref := append([]uint64(nil), a...)
		rg.NTTInPlace(0, vec)
		withKernels(false, func() { rg.NTTInPlace(0, ref) })
		check("forward", vec, ref)

		// Inverse on the same (random, not transformed) input.
		inv := append([]uint64(nil), a...)
		invRef := append([]uint64(nil), a...)
		rg.INTTInPlace(0, inv)
		withKernels(false, func() { rg.INTTInPlace(0, invRef) })
		check("inverse", inv, invRef)

		rg.INTTInPlace(0, vec)
		check("round trip", vec, a)
	})
}
