package ckks

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cross/internal/ring"
)

// TestLazyKeyIPPredicate pins which parameter sets sum the key inner
// product and the tensor product's cross terms lazily: the paper's
// 28-bit primes (29-bit special primes) do at every dnum it uses,
// 40-bit primes cannot.
func TestLazyKeyIPPredicate(t *testing.T) {
	for _, tc := range []struct {
		logN     int
		logScale uint
		l, dnum  int
		want     bool
	}{
		{12, 28, 4, 3, true},
		{14, 28, 15, 3, true},
		{10, 28, 6, 6, true},
		{10, 40, 6, 3, false},
		{10, 40, 6, 1, false},
		// One digit still needs two products in a word, for the tensor
		// product: the 32-bit special primes exceed 2^31.5.
		{10, 31, 4, 1, false},
	} {
		p := MustParameters(tc.logN, tc.logScale, tc.l, tc.dnum)
		if p.lazyKeyIP != tc.want {
			t.Errorf("logN=%d logScale=%d L=%d dnum=%d: lazyKeyIP = %v want %v",
				tc.logN, tc.logScale, tc.l, tc.dnum, p.lazyKeyIP, tc.want)
		}
	}
}

// TestKeyInnerProductPathsAgree runs keySwitch and applyHoisted (with
// and without an automorphism) on both inner-product paths, each with
// the AVX-512 kernels on and off, and requires bit-identical outputs,
// at the top level and at one with fewer digits.
func TestKeyInnerProductPathsAgree(t *testing.T) {
	tc := newTestContext(t, []int{3})
	if !tc.p.lazyKeyIP {
		t.Fatal("test parameters should take the lazy inner product")
	}
	rng := rand.New(rand.NewSource(60))
	pt, _ := tc.enc.Encode(randomSlots(rng, tc.p.Slots()))
	ct := tc.ctr.Encrypt(pt)
	g := tc.p.RingQP.GaloisElementForRotation(3)
	idx, err := tc.p.RingQP.AutomorphismNTTIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	rlk := &tc.ev.rlk.SwitchingKey
	gk := &tc.ev.gks[g].SwitchingKey

	run := func(lvl int) []*ring.Poly {
		d := ct.C1.CopyNew()
		d.Coeffs = d.Coeffs[:lvl+1]
		out := make([]*ring.Poly, 6)
		for i := range out {
			out[i] = ring.NewPoly(lvl+1, tc.p.N())
		}
		tc.ev.keySwitch(d, lvl, rlk, out[0], out[1], true)
		h := tc.ev.decompose(d, lvl)
		tc.ev.applyHoisted(h, nil, rlk, out[2], out[3], true)
		tc.ev.applyHoisted(h, idx, gk, out[4], out[5], true)
		return out
	}
	defer func() { tc.p.lazyKeyIP = true }()
	for _, lvl := range []int{tc.p.MaxLevel(), 2} {
		want := run(lvl)
		for _, path := range []struct{ lazy, vector bool }{{true, false}, {false, true}, {false, false}} {
			tc.p.lazyKeyIP = path.lazy
			var got []*ring.Poly
			withKernels(path.vector, func() { got = run(lvl) })
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("level %d output %d: default inner product and %+v differ", lvl, i, path)
				}
			}
		}
	}
}

// TestKeySwitchWideScale runs MulRelin → Rescale → Rotate and
// RotateHoisted at logScale 40, where a product of two residues exceeds
// one word and the per-digit inner product runs, and checks precision
// against plaintext arithmetic.
func TestKeySwitchWideScale(t *testing.T) {
	rots := []int{1, 5}
	tc := newTestContextFor(t, MustParameters(10, 40, 6, 3), rots)
	if tc.p.lazyKeyIP {
		t.Fatal("40-bit primes must not take the lazy inner product")
	}
	rng := rand.New(rand.NewSource(61))
	z1 := randomSlots(rng, tc.p.Slots())
	z2 := randomSlots(rng, tc.p.Slots())
	pt1, _ := tc.enc.Encode(z1)
	pt2, _ := tc.enc.Encode(z2)
	prod, err := tc.ev.MulRelin(tc.ctr.Encrypt(pt1), tc.ctr.Encrypt(pt2))
	if err != nil {
		t.Fatal(err)
	}
	if prod, err = tc.ev.Rescale(prod); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] * z2[i]
	}
	rotated := func(k int) []complex128 {
		out := make([]complex128, len(want))
		for i := range out {
			out[i] = want[(i+k)%len(want)]
		}
		return out
	}
	const bound = 1e-6 // 2^40 scale: ~12 bits tighter than the 28-bit tests
	if e := maxErr(tc.enc.Decode(tc.dec.Decrypt(prod)), want); e > bound {
		t.Fatalf("MulRelin+Rescale error %g", e)
	}
	hoisted, err := tc.ev.RotateHoisted(prod, rots)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range rots {
		rot, err := tc.ev.Rotate(prod, k)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(tc.enc.Decode(tc.dec.Decrypt(rot)), rotated(k)); e > bound {
			t.Fatalf("Rotate(%d) error %g", k, e)
		}
		if e := maxErr(tc.enc.Decode(tc.dec.Decrypt(hoisted[i])), rotated(k)); e > bound {
			t.Fatalf("RotateHoisted(%d) error %g", k, e)
		}
	}
}

// TestEvaluatorsShareParameters runs two evaluators over one fresh
// Parameters concurrently, so both fill its converter cache at once
// (run under -race), and checks each result against a serial run.
func TestEvaluatorsShareParameters(t *testing.T) {
	tc := newTestContext(t, []int{1})
	rng := rand.New(rand.NewSource(62))
	pt, _ := tc.enc.Encode(randomSlots(rng, tc.p.Slots()))
	ct := tc.ctr.Encrypt(pt)

	op := func(ev *Evaluator) (*Ciphertext, error) {
		sq, err := ev.MulRelin(ct, ct)
		if err != nil {
			return nil, err
		}
		return ev.Rotate(sq, 1)
	}
	const workers = 2
	got := make([]*Ciphertext, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ev := NewEvaluator(tc.p, tc.ev.rlk, tc.ev.gks)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = op(ev)
		}(w)
	}
	wg.Wait()
	want, err := op(tc.ev)
	if err != nil {
		t.Fatal(err)
	}
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("evaluator %d: %v", w, errs[w])
		}
		if !got[w].C0.Equal(want.C0) || !got[w].C1.Equal(want.C1) {
			t.Fatalf("evaluator %d: result differs from the serial run", w)
		}
	}
}

// TestKeySwitchAllocsOutputOnly holds the key-switching operators to
// their returned ciphertext: at one worker, MulRelin, Rotate and
// Conjugate allocate at most the returned ciphertext's bytes plus
// 16 KiB per call, and their destination-passing forms allocate
// nothing.
func TestKeySwitchAllocsOutputOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are not steady")
	}
	tc := newTestContext(t, []int{1})
	rng := rand.New(rand.NewSource(63))
	pt, _ := tc.enc.Encode(randomSlots(rng, tc.p.Slots()))
	ct := tc.ctr.Encrypt(pt)
	base := tc.p.RingQP
	defer func() { tc.p.RingQP = base }()
	tc.p.RingQP = base.WithParallelism(1)
	rot := tc.p.RingQP.GaloisElementForRotation(1)
	conj := tc.p.RingQP.GaloisElementForConjugation()
	out := tc.ev.newCiphertext(ct.Level, ct.Scale)
	outBytes := uint64(2 * (ct.Level + 1) * tc.p.N() * 8)

	for _, op := range []struct {
		name string
		f    func() (*Ciphertext, error)
		into func() error
	}{
		{"MulRelin", func() (*Ciphertext, error) { return tc.ev.MulRelin(ct, ct) },
			func() error { tc.ev.mulRelinInto(out, ct, ct); return nil }},
		{"Rotate", func() (*Ciphertext, error) { return tc.ev.Rotate(ct, 1) },
			func() error { return tc.ev.applyGaloisInto(out, ct, rot) }},
		{"Conjugate", func() (*Ciphertext, error) { return tc.ev.Conjugate(ct) },
			func() error { return tc.ev.applyGaloisInto(out, ct, conj) }},
	} {
		if _, err := op.f(); err != nil { // warm the pools and converter caches
			t.Fatal(err)
		}
		const calls = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := op.f(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("%s: %d bytes per call, output %d", op.name, perCall, outBytes)
		if perCall > outBytes+16<<10 {
			t.Errorf("%s: %d bytes per call, over the %d-byte output + 16 KiB", op.name, perCall, outBytes)
		}
		if n := testing.AllocsPerRun(10, func() {
			if err := op.into(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: destination-passing form allocates %.0f objects per call", op.name, n)
		}
	}
}
