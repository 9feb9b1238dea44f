package ckks

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWorkerCountBitExact runs every key-switching operator plus
// Encrypt at 1, 2 and 4 limb workers and requires byte-identical
// ciphertexts and identical kernel counters. The logScale-28 set takes
// the lazy inner product and the one-word BConv Step 2; the logScale-40
// set takes the per-digit inner product and the 128-bit Step 2.
func TestWorkerCountBitExact(t *testing.T) {
	for _, ps := range []struct {
		logScale uint
		lazy     bool
	}{{28, true}, {40, false}} {
		t.Run(fmt.Sprintf("logScale%d", ps.logScale), func(t *testing.T) {
			rots := []int{1, 4}
			tc := newTestContextFor(t, MustParameters(10, ps.logScale, 6, 3), rots)
			if tc.p.lazyKeyIP != ps.lazy {
				t.Fatalf("lazyKeyIP = %v want %v", tc.p.lazyKeyIP, ps.lazy)
			}
			rng := rand.New(rand.NewSource(70))
			slots := tc.p.Slots()
			diagonals := map[int][]complex128{}
			for _, d := range []int{0, 1, 5} {
				diagonals[d] = randomSlots(rng, slots)
			}
			lt, err := tc.ev.NewLinearTransform(tc.enc, diagonals, tc.p.MaxLevel()-1, tc.p.Scale)
			if err != nil {
				t.Fatal(err)
			}
			pt1, _ := tc.enc.Encode(randomSlots(rng, slots))
			pt2, _ := tc.enc.Encode(randomSlots(rng, slots))

			base := tc.p.RingQP
			defer func() { tc.p.RingQP = base }()
			run := func(workers int) ([]*Ciphertext, KernelCounters) {
				tc.p.RingQP = base.WithParallelism(workers)
				tc.ev.ResetCounters()
				ctr := NewEncryptor(tc.p, tc.pk, 11)
				ct1, ct2 := ctr.Encrypt(pt1), ctr.Encrypt(pt2)
				prod, err := tc.ev.MulRelin(ct1, ct2)
				if err != nil {
					t.Fatal(err)
				}
				res, err := tc.ev.Rescale(prod)
				if err != nil {
					t.Fatal(err)
				}
				rot, err := tc.ev.Rotate(res, 1)
				if err != nil {
					t.Fatal(err)
				}
				conj, err := tc.ev.Conjugate(res)
				if err != nil {
					t.Fatal(err)
				}
				hoisted, err := tc.ev.RotateHoisted(res, rots)
				if err != nil {
					t.Fatal(err)
				}
				mv, err := tc.ev.EvalLinearTransform(res, lt)
				if err != nil {
					t.Fatal(err)
				}
				return append([]*Ciphertext{ct1, ct2, prod, res, rot, conj, mv}, hoisted...), tc.ev.Kc
			}

			want, wantKc := run(1)
			for _, workers := range []int{2, 4} {
				got, kc := run(workers)
				if kc != wantKc {
					t.Errorf("workers=%d: kernel counters %+v, serial %+v", workers, kc, wantKc)
				}
				for i := range want {
					g, w := got[i], want[i]
					if !g.C0.Equal(w.C0) || !g.C1.Equal(w.C1) || g.Level != w.Level || g.Scale != w.Scale {
						t.Errorf("workers=%d: output %d differs from the serial run", workers, i)
					}
				}
			}
		})
	}
}

// TestParallelAllocsBounded holds the fan-out's heap cost down: at two
// workers MulRelin, Rotate and Rescale allocate at most 1.25× their
// serial count per operation.
func TestParallelAllocsBounded(t *testing.T) {
	tc := newTestContext(t, []int{1})
	rng := rand.New(rand.NewSource(71))
	pt, _ := tc.enc.Encode(randomSlots(rng, tc.p.Slots()))
	ct := tc.ctr.Encrypt(pt)
	base := tc.p.RingQP
	defer func() { tc.p.RingQP = base }()

	for _, op := range []struct {
		name string
		f    func() (*Ciphertext, error)
	}{
		{"MulRelin", func() (*Ciphertext, error) { return tc.ev.MulRelin(ct, ct) }},
		{"Rotate", func() (*Ciphertext, error) { return tc.ev.Rotate(ct, 1) }},
		{"Rescale", func() (*Ciphertext, error) { return tc.ev.Rescale(ct) }},
	} {
		allocs := func(workers int) float64 {
			tc.p.RingQP = base.WithParallelism(workers)
			run := func() {
				if _, err := op.f(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the arena
			return testing.AllocsPerRun(20, run)
		}
		serial, parallel := allocs(1), allocs(2)
		t.Logf("%s: %.0f allocs/op serial, %.0f at 2 workers", op.name, serial, parallel)
		if parallel > 1.25*serial {
			t.Errorf("%s: %.0f allocs/op at 2 workers, over 1.25× the serial %.0f", op.name, parallel, serial)
		}
	}
}
