package ring

import (
	"math/rand"
	"runtime"
	"testing"

	"cross/internal/modarith"
	"cross/internal/simd"
)

// The allocation-free discipline of the hot paths is part of the API
// contract (ISSUE 4 / DESIGN.md §11): steady-state transforms must not
// touch the heap. These tests pin that with testing.AllocsPerRun; the
// hostbench CI gate additionally holds allocs/op at zero drift.

// allocsAfterGC runs f once right after two garbage collections and
// returns the heap objects that call allocated: scratch memory that a
// collection could drop would be allocated again here. Like
// testing.AllocsPerRun it runs on one P, so that no other goroutine's
// allocations are counted.
func allocsAfterGC(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestNTTInPlaceZeroAllocs(t *testing.T) {
	n := 1 << 10
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	rg := MustRing(n, primes)
	rng := rand.New(rand.NewSource(5))
	buf := make([]uint64, n)
	for i := range buf {
		buf[i] = rng.Uint64() % primes[0]
	}
	if avg := testing.AllocsPerRun(100, func() { rg.NTTInPlace(0, buf) }); avg != 0 {
		t.Fatalf("NTTInPlace allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { rg.INTTInPlace(0, buf) }); avg != 0 {
		t.Fatalf("INTTInPlace allocates %.2f/op, want 0", avg)
	}
}

func TestMatNTTZeroAllocsSteadyState(t *testing.T) {
	n := 1 << 10
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	rg := MustRing(n, primes)
	plan, err := NewMatNTTPlan(rg, 32, 32, LayoutBitRev)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	in := make([]uint64, n)
	for i := range in {
		in[i] = rng.Uint64() % primes[0]
	}
	out := make([]uint64, n)
	// Warm the arena so it holds its limbs before measuring.
	plan.ForwardLimb(0, in, out)
	plan.InverseLimb(0, out, out)
	if avg := testing.AllocsPerRun(100, func() { plan.ForwardLimb(0, in, out) }); avg != 0 {
		t.Fatalf("MatNTT ForwardLimb allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { plan.InverseLimb(0, out, out) }); avg != 0 {
		t.Fatalf("MatNTT InverseLimb (in-place) allocates %.2f/op, want 0", avg)
	}
	if n := allocsAfterGC(func() { plan.ForwardLimb(0, in, in) }); n != 0 {
		t.Fatalf("MatNTT ForwardLimb (in-place) allocates %d objects after two collections, want 0", n)
	}
}

// TestAutomorphismNTTZeroAllocs also pins the element-wise ring ops the
// key switch uses to 0 allocs/op, on the AVX-512 kernels where the host
// has them.
func TestAutomorphismNTTZeroAllocs(t *testing.T) {
	t.Logf("kernel backend: %s", simd.Kernels())
	n := 1 << 10
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	rg := MustRing(n, primes)
	idx, err := rg.AutomorphismNTTIndex(5)
	if err != nil {
		t.Fatal(err)
	}
	in, out := NewPoly(1, n), NewPoly(1, n)
	for name, f := range map[string]func(){
		"AutomorphismNTT":     func() { rg.AutomorphismNTT(in, out, idx) },
		"AutomorphismNTTLimb": func() { rg.AutomorphismNTTLimb(in.Coeffs[0], out.Coeffs[0], idx) },
		"Add":                 func() { rg.Add(in, out, out) },
		"Sub":                 func() { rg.Sub(in, out, out) },
		"MulCoeffs":           func() { rg.MulCoeffs(in, out, out) },
	} {
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Fatalf("%s allocates %.2f/op, want 0", name, avg)
		}
	}
	// The cached index lookup itself must also be free after the first
	// build (one table per galois element, shared across views).
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := rg.AutomorphismNTTIndex(5); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("cached AutomorphismNTTIndex allocates %.2f/op, want 0", avg)
	}
}
