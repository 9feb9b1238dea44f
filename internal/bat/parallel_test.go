package bat

import (
	"math/rand"
	"runtime"
	"testing"

	"cross/internal/modarith"
)

// The Parallelism guard for the BAT pipeline: every worker count must
// reproduce the serial result bit for bit (ISSUE acceptance).
func TestMulParallelBitExact(t *testing.T) {
	m := modarith.MustModulus(268369921)
	rng := rand.New(rand.NewSource(5))
	h, v, w := 33, 17, 29 // deliberately not worker-divisible
	a := make([]uint64, h*v)
	b := make([]uint64, v*w)
	for i := range a {
		a[i] = rng.Uint64() % m.Q
	}
	for i := range b {
		b[i] = rng.Uint64() % m.Q
	}
	plan, err := OfflineCompileLeft(m, a, h, v)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plan.Mul(b, w)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ModMatMulDirect(m, a, h, v, b, w)

	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		got, err := plan.MulParallel(b, w, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: element %d = %d, serial %d", workers, i, got[i], serial[i])
			}
			if got[i] != oracle[i] {
				t.Fatalf("workers=%d: element %d = %d, oracle %d", workers, i, got[i], oracle[i])
			}
		}
	}
}

func TestMulParallelValidation(t *testing.T) {
	m := modarith.MustModulus(268369921)
	plan, err := OfflineCompileLeft(m, []uint64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.MulParallel([]uint64{1, 2, 3}, 2, 4); err == nil {
		t.Error("expected size-mismatch error")
	}
	if _, err := plan.MatMulLowPrecParallel(make([]uint8, 3), 2, 4); err == nil {
		t.Error("expected dense size-mismatch error")
	}
}

func TestRowRanges(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{10, 4, 4}, {3, 8, 3}, {7, 1, 1}, {0, 4, 0}, {16, 0, 1},
	} {
		ranges := rowRanges(tc.n, tc.workers)
		if len(ranges) > tc.want && tc.want > 0 {
			t.Errorf("rowRanges(%d,%d) = %d chunks, want ≤ %d", tc.n, tc.workers, len(ranges), tc.want)
		}
		covered := 0
		prevEnd := 0
		for _, r := range ranges {
			if r[0] != prevEnd {
				t.Errorf("rowRanges(%d,%d): gap before %v", tc.n, tc.workers, r)
			}
			covered += r[1] - r[0]
			prevEnd = r[1]
		}
		if covered != tc.n {
			t.Errorf("rowRanges(%d,%d) covers %d rows", tc.n, tc.workers, covered)
		}
	}
}

// TestMulParallelClampsInvalidWorkers is the error-path contract of
// MulParallel: zero and negative worker counts clamp to the serial
// path and stay bit-identical to Mul.
func TestMulParallelClampsInvalidWorkers(t *testing.T) {
	m := modarith.MustModulus(268369921)
	rng := rand.New(rand.NewSource(13))
	h, v, w := 8, 8, 8
	a := make([]uint64, h*v)
	x := make([]uint64, v*w)
	for i := range a {
		a[i] = rng.Uint64() % m.Q
	}
	for i := range x {
		x[i] = rng.Uint64() % m.Q
	}
	plan, err := OfflineCompileLeft(m, a, h, v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Mul(x, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -1, -42} {
		got, err := plan.MulParallel(x, w, workers)
		if err != nil {
			t.Fatalf("MulParallel(workers=%d) errored: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MulParallel(workers=%d) diverges at %d", workers, i)
			}
		}
	}
}

// TestMulIntoZeroAllocsSteadyState pins the pipeline's allocation-free
// contract: after one warmup sizes the plan's buffers, MulInto
// allocates nothing, also on the first call after two collections.
func TestMulIntoZeroAllocsSteadyState(t *testing.T) {
	m := modarith.MustModulus(268369921)
	rng := rand.New(rand.NewSource(14))
	h, v, w := 16, 16, 16
	a := make([]uint64, h*v)
	x := make([]uint64, v*w)
	for i := range a {
		a[i] = rng.Uint64() % m.Q
	}
	for i := range x {
		x[i] = rng.Uint64() % m.Q
	}
	plan, err := OfflineCompileLeft(m, a, h, v)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, h*w)
	if err := plan.MulInto(dst, x, w, 1); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := plan.MulInto(dst, x, w, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("MulInto allocates %.2f/op, want 0", avg)
	}
	// The first call after two collections, on one P as in AllocsPerRun.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = plan.MulInto(dst, x, w, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("MulInto allocates %d objects after two collections, want 0", n)
	}
}

// TestMulRejectsInvalidWidth pins the error-return contract on bad w:
// non-positive widths must error, never panic (regression guard for
// the MulInto refactor).
func TestMulRejectsInvalidWidth(t *testing.T) {
	m := modarith.MustModulus(268369921)
	a := make([]uint64, 4)
	plan, err := OfflineCompileLeft(m, a, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 0} {
		if _, err := plan.Mul(a, w); err == nil {
			t.Fatalf("Mul(w=%d) should error", w)
		}
		if _, err := plan.MulParallel(a, w, 2); err == nil {
			t.Fatalf("MulParallel(w=%d) should error", w)
		}
		if err := plan.MulInto(make([]uint64, 4), a, w, 1); err == nil {
			t.Fatalf("MulInto(w=%d) should error", w)
		}
	}
}
