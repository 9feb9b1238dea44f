package ring

import (
	"math/rand"
	"runtime"
	"testing"

	"cross/internal/modarith"
)

// randomPoly fills a fresh poly with uniform coefficients below each
// limb's modulus.
func randomPoly(t *testing.T, r *Ring, seed int64) *Poly {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := r.NewPoly()
	for i, m := range r.Moduli {
		for k := range p.Coeffs[i] {
			p.Coeffs[i][k] = rng.Uint64() % m.Q
		}
	}
	return p
}

// The Parallelism guard: every worker count must produce bit-identical
// transforms (ISSUE acceptance — parallel NTT == serial NTT).
func TestParallelNTTBitExact(t *testing.T) {
	n := 1 << 10
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 6)
	if err != nil {
		t.Fatal(err)
	}
	r := MustRing(n, primes)
	ref := randomPoly(t, r, 7)

	serial := ref.CopyNew()
	r.NTT(serial)

	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		rp := r.WithParallelism(workers)
		if rp.Parallelism() != workers && workers >= 1 {
			t.Fatalf("parallelism = %d, want %d", rp.Parallelism(), workers)
		}
		got := ref.CopyNew()
		rp.NTT(got)
		if !got.Equal(serial) {
			t.Fatalf("parallel NTT (workers=%d) differs from serial", workers)
		}
		rp.INTT(got)
		if !got.Equal(ref) {
			t.Fatalf("parallel INTT (workers=%d) did not invert", workers)
		}
	}
}

func TestParallelMatNTTBitExact(t *testing.T) {
	n := 1 << 8
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 4)
	if err != nil {
		t.Fatal(err)
	}
	r := MustRing(n, primes)
	plan, err := NewMatNTTPlan(r, 16, 16, LayoutBitRev)
	if err != nil {
		t.Fatal(err)
	}
	ref := randomPoly(t, r, 11)
	serial := ref.CopyNew()
	plan.Forward(serial)

	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		rp := r.WithParallelism(workers)
		pplan, err := NewMatNTTPlan(rp, 16, 16, LayoutBitRev)
		if err != nil {
			t.Fatal(err)
		}
		got := ref.CopyNew()
		pplan.Forward(got)
		if !got.Equal(serial) {
			t.Fatalf("parallel MatNTT forward (workers=%d) differs", workers)
		}
		pplan.Inverse(got)
		if !got.Equal(ref) {
			t.Fatalf("parallel MatNTT inverse (workers=%d) did not invert", workers)
		}
	}
}

// WithParallelism must be a non-mutating view: the receiver keeps its
// serial behaviour and AtLevel carries the option.
func TestWithParallelismView(t *testing.T) {
	n := 1 << 8
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 3)
	if err != nil {
		t.Fatal(err)
	}
	r := MustRing(n, primes)
	rp := r.WithParallelism(4)
	if r.Parallelism() != 1 {
		t.Error("WithParallelism mutated the receiver")
	}
	if rp.Parallelism() != 4 {
		t.Error("view lost the worker count")
	}
	sub, err := rp.AtLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Parallelism() != 4 {
		t.Error("AtLevel dropped the worker count")
	}
	if r.WithParallelism(0).Parallelism() != 1 {
		t.Error("workers < 1 should clamp to serial")
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		n := 37
		hit := make([]int32, n)
		parallelFor(workers, n, func(i int) { hit[i]++ })
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	parallelFor(4, 0, func(i int) { t.Fatal("called for n=0") })
}

// TestWithParallelismClampsInvalid is the error-path contract of
// WithParallelism: zero and negative worker counts are invalid inputs
// and must clamp to the serial path (never panic, never launch a
// zero-width pool), and the clamped view must stay bit-identical to
// the serial transforms.
func TestWithParallelismClampsInvalid(t *testing.T) {
	n := 64
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), 2)
	if err != nil {
		t.Fatal(err)
	}
	r := MustRing(n, primes)
	rng := rand.New(rand.NewSource(12))
	ref := NewPoly(2, n)
	for i := range ref.Coeffs {
		for k := range ref.Coeffs[i] {
			ref.Coeffs[i][k] = rng.Uint64() % primes[i]
		}
	}
	want := ref.CopyNew()
	r.NTT(want)
	for _, workers := range []int{0, -1, -1000} {
		rp := r.WithParallelism(workers)
		if got := rp.Parallelism(); got != 1 {
			t.Fatalf("WithParallelism(%d).Parallelism() = %d, want clamp to 1", workers, got)
		}
		got := ref.CopyNew()
		rp.NTT(got)
		if !got.Equal(want) {
			t.Fatalf("WithParallelism(%d) NTT diverges from serial", workers)
		}
	}
}

// TestParallelForAllocs pins the fan-out's own heap cost: with a
// closure allocated by the caller, a steady-state parallelFor adds no
// allocation at any worker count (jobs come from a free list, helpers
// are spawned without a closure).
func TestParallelForAllocs(t *testing.T) {
	hit := make([]int64, 16)
	f := func(i int) { hit[i]++ }
	for _, workers := range []int{1, 2, 4} {
		parallelFor(workers, len(hit), f)
		if avg := testing.AllocsPerRun(100, func() { parallelFor(workers, len(hit), f) }); avg != 0 {
			t.Fatalf("workers=%d: parallelFor allocates %.2f/op, want 0", workers, avg)
		}
	}
}
