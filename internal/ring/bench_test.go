package ring

import (
	"math/rand"
	"testing"

	"cross/internal/modarith"
)

// benchRing builds the fixed-size ring the host benchmarks use:
// N = 2^13 with a 28-bit NTT prime (the paper's limb width).
func benchRing(b *testing.B) (*Ring, []uint64) {
	b.Helper()
	n := 1 << 13
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 1)
	if err != nil {
		b.Fatal(err)
	}
	rg := MustRing(n, primes)
	rng := rand.New(rand.NewSource(41))
	data := make([]uint64, n)
	for i := range data {
		data[i] = rng.Uint64() % primes[0]
	}
	return rg, data
}

// BenchmarkNTT times the steady-state in-place forward transform — the
// headline ns/op gated by BENCH_host.json.
func BenchmarkNTT(b *testing.B) {
	rg, data := benchRing(b)
	buf := append([]uint64(nil), data...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.NTTInPlace(0, buf)
	}
}

// BenchmarkINTT times the steady-state in-place inverse transform.
func BenchmarkINTT(b *testing.B) {
	rg, data := benchRing(b)
	buf := append([]uint64(nil), data...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.INTTInPlace(0, buf)
	}
}

// BenchmarkNTTStrict times the retained strict-reduction reference, so
// the lazy speedup is visible in one -bench=NTT run.
func BenchmarkNTTStrict(b *testing.B) {
	rg, data := benchRing(b)
	buf := append([]uint64(nil), data...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.NTTInPlaceStrict(0, buf)
	}
}

// BenchmarkINTTStrict times the strict inverse reference.
func BenchmarkINTTStrict(b *testing.B) {
	rg, data := benchRing(b)
	buf := append([]uint64(nil), data...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.INTTInPlaceStrict(0, buf)
	}
}

// BenchmarkMatNTTForward times the 3-step matrix NTT with the ring's
// scratch arena (steady state must not allocate).
func BenchmarkMatNTTForward(b *testing.B) {
	rg, data := benchRing(b)
	plan, err := NewMatNTTPlan(rg, 128, 64, LayoutBitRev)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]uint64, rg.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.ForwardLimb(0, data, out)
	}
}

// BenchmarkAutomorphismNTT times the cached-index slot permutation.
func BenchmarkAutomorphismNTT(b *testing.B) {
	rg, data := benchRing(b)
	idx, err := rg.AutomorphismNTTIndex(5)
	if err != nil {
		b.Fatal(err)
	}
	in := NewPoly(1, rg.N)
	copy(in.Coeffs[0], data)
	out := NewPoly(1, rg.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rg.AutomorphismNTT(in, out, idx)
	}
}
