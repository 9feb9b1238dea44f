package ckks

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

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
// nothing, also on the first call after two collections.
func TestKeySwitchAllocsOutputOnly(t *testing.T) {
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
		if _, err := op.f(); err != nil { // warm the arena and converter caches
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
		if n, _ := allocsAfterGC(func() {
			if err := op.into(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: destination-passing form allocates %d objects after two collections", op.name, n)
		}
	}
}

// TestSwitchingKeyWords pins the key-word layout: at 28 bits every key
// limb holds 4 bytes per coefficient and no high words; at logScale 40,
// whose primes exceed 2^32, the high words are present and carry bits.
// Every stored word must be a residue of its limb's prime.
func TestSwitchingKeyWords(t *testing.T) {
	for _, tc := range []struct {
		logScale uint
		wide     bool
	}{{28, false}, {40, true}} {
		p := MustParameters(10, tc.logScale, 6, 3)
		kg := NewKeyGenerator(p, 3)
		rlk := kg.GenRelinearizationKey(kg.GenSecretKey())
		var highBits uint32
		for j, kp := range append(rlk.b, rlk.a...) {
			if len(kp.lo) != p.L+p.Alpha || (kp.hi != nil) != tc.wide {
				t.Fatalf("logScale %d poly %d: %d limbs, high words %v; want %d limbs, high words %v",
					tc.logScale, j, len(kp.lo), kp.hi != nil, p.L+p.Alpha, tc.wide)
			}
			for i, lo := range kp.lo {
				if bytes := len(lo) * int(unsafe.Sizeof(lo[0])); bytes != 4*p.N() {
					t.Fatalf("logScale %d poly %d limb %d: %d bytes, want %d", tc.logScale, j, i, bytes, 4*p.N())
				}
				q := p.RingQP.Moduli[i].Q
				for k, w := range lo {
					word := uint64(w)
					if kp.hi != nil {
						word |= uint64(kp.hi[i][k]) << 32
						highBits |= kp.hi[i][k]
					}
					if word >= q {
						t.Fatalf("logScale %d poly %d limb %d coeff %d: %d is not below q = %d", tc.logScale, j, i, k, word, q)
					}
				}
			}
		}
		if tc.wide && highBits == 0 {
			t.Fatalf("logScale %d: every high word is zero", tc.logScale)
		}
	}
}

// TestSwitchingKeyHeap holds a relinearisation key at logN 12 to at
// most 0.55× the bytes of the same key in 64-bit words. The key's live
// bytes are what a garbage collection frees once the key is dropped.
func TestSwitchingKeyHeap(t *testing.T) {
	p := MustParameters(12, 28, 6, 3)
	kg := NewKeyGenerator(p, 4)
	sk := kg.GenSecretKey()
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	rlk := kg.GenRelinearizationKey(sk)
	held := live()
	runtime.KeepAlive(rlk)
	keyBytes := held - live()
	wide := int64(2 * p.NumDigits(p.MaxLevel()) * (p.L + p.Alpha) * p.N() * 8)
	t.Logf("relinearisation key: %d live bytes, %d in 64-bit words", keyBytes, wide)
	if float64(keyBytes) > 0.55*float64(wide) {
		t.Fatalf("relinearisation key holds %d live bytes, over 0.55 × %d", keyBytes, wide)
	}
}
