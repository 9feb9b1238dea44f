package ckks

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cross/internal/ring"
)

// TestEncodeNonFinite requires EncodeAtLevel to return ErrNonFinite,
// not panic, for a NaN or infinite slot and for a finite one that
// overflows once scaled.
func TestEncodeNonFinite(t *testing.T) {
	p := MustParameters(5, 28, 3, 1)
	enc := NewEncoder(p)
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name  string
		value complex128
		scale float64
	}{
		{"NaN", complex(nan, 0), p.Scale},
		{"NaN imaginary", complex(0, nan), p.Scale},
		{"+Inf", complex(inf, 0), p.Scale},
		{"-Inf", complex(-inf, 0), p.Scale},
		{"-Inf imaginary", complex(1, -inf), p.Scale},
		{"overflow after scaling", complex(math.MaxFloat64, 0), p.Scale},
		{"NaN scale", complex(1, 0), nan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals := make([]complex128, p.Slots())
			vals[1] = tc.value
			pt, err := enc.EncodeAtLevel(vals, p.MaxLevel(), tc.scale)
			if !errors.Is(err, ErrNonFinite) || pt != nil {
				t.Fatalf("got (%v, %v), want (nil, ErrNonFinite)", pt, err)
			}
		})
	}
	if _, err := enc.Encode([]complex128{complex(math.MaxFloat64/p.Scale, 0)}); err != nil {
		t.Fatalf("largest finite value: %v", err)
	}
}

// TestEncodeRounding encodes constant slot vectors, whose message
// polynomial is exactly the constant: coefficient 0 carries the real
// part and coefficient N/2 the imaginary part, with no FFT rounding.
// Halves must round away from zero, and the largest float64 below 2^63
// (word path) and 2^63 itself (big.Int path) must embed exactly.
func TestEncodeRounding(t *testing.T) {
	p := MustParameters(5, 28, 3, 1)
	enc := NewEncoder(p)
	for _, tc := range []struct {
		x    float64
		want string
	}{
		{0.5, "1"}, {1.5, "2"}, {2.5, "3"}, {-0.5, "-1"}, {-2.5, "-3"}, {0.49999999999999994, "0"},
		{0x1p63 - 1024, "9223372036854774784"}, {-0x1p63 + 1024, "-9223372036854774784"},
		{0x1p63, "9223372036854775808"}, {-0x1p63, "-9223372036854775808"},
	} {
		vals := make([]complex128, p.Slots())
		for j := range vals {
			vals[j] = complex(tc.x/p.Scale, -tc.x/p.Scale)
		}
		pt, err := enc.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		p.RingQP.INTT(pt.Value)
		want, _ := new(big.Int).SetString(tc.want, 10)
		for i, l := range pt.Value.Coeffs {
			q := new(big.Int).SetUint64(p.RingQP.Moduli[i].Q)
			re := new(big.Int).Mod(want, q).Uint64()
			im := new(big.Int).Mod(new(big.Int).Neg(want), q).Uint64()
			if l[0] != re || l[p.Slots()] != im {
				t.Fatalf("x = %v: limb %d holds (%d, %d), want (%d, %d)", tc.x, i, l[0], l[p.Slots()], re, im)
			}
		}
	}
}

// FuzzEncodeWordVsBig compares EncodeAtLevel's limbs with the big.Int
// embedding it replaced: every coefficient rounded by bigFromFloat and
// reduced by big.Int.Mod. The slots are chosen so that the message
// coefficients have magnitudes 2^(63 ± spread/16), straddling the 2^63
// boundary between the word and the big.Int branch, at logScale 28 and
// 40.
func FuzzEncodeWordVsBig(f *testing.F) {
	var encs []*Encoder
	for _, logScale := range []uint{28, 40} {
		encs = append(encs, NewEncoder(MustParameters(5, logScale, 3, 1)))
	}
	f.Add(uint8(0), int64(1), uint8(16), uint8(2))
	f.Add(uint8(1), int64(2), uint8(16), uint8(2))
	f.Add(uint8(0), int64(3), uint8(0), uint8(0))
	f.Add(uint8(1), int64(4), uint8(200), uint8(1))
	f.Fuzz(func(t *testing.T, eidx uint8, seed int64, spread, level uint8) {
		e := encs[int(eidx)%len(encs)]
		p := e.p
		lvl := int(level) % (p.MaxLevel() + 1)
		rng := rand.New(rand.NewSource(seed))
		coeff := func() float64 {
			x := math.Ldexp(1+rng.Float64(), 62+int(math.Round((rng.Float64()*2-1)*float64(spread)/16)))
			if rng.Intn(2) == 0 {
				x = -x
			}
			return x / p.Scale
		}
		vals := make([]complex128, e.n)
		for j := range vals {
			vals[j] = complex(coeff(), coeff())
		}
		e.fftSpecial(vals)

		got, err := e.EncodeAtLevel(vals, lvl, p.Scale)
		if err != nil {
			t.Fatal(err)
		}
		coeffs := append([]complex128(nil), vals...)
		e.fftSpecialInv(coeffs)
		want := ring.NewPoly(lvl+1, p.N())
		var words, wides int
		for k := 0; k < p.N(); k++ {
			x := e.scaledCoeff(coeffs, k, p.Scale)
			if math.Abs(x) < 0x1p63 {
				words++
			} else {
				wides++
			}
			c := bigFromFloat(x)
			for i := 0; i <= lvl; i++ {
				want.Coeffs[i][k] = new(big.Int).Mod(c, new(big.Int).SetUint64(p.RingQP.Moduli[i].Q)).Uint64()
			}
		}
		p.RingQP.NTT(want)
		for i := range want.Coeffs {
			for k, w := range want.Coeffs[i] {
				if got.Value.Coeffs[i][k] != w {
					t.Fatalf("logScale %d level %d: limb %d coeff %d: word path %d, big.Int %d", p.LogScale, lvl, i, k, got.Value.Coeffs[i][k], w)
				}
			}
		}
		if spread >= 16 && (words == 0 || wides == 0) {
			t.Fatalf("spread %d: %d coefficients below 2^63 and %d at or above, want both", spread, words, wides)
		}
	})
}

// TestEncodeDecodeAllocsFlat requires Encode and Decode to make as many
// allocations at logN 14 as at logN 12: a count that grew with N would
// mean an allocation per coefficient, as the big.Int path made. The
// ring runs on one limb worker, since a parallel NTT's helper
// goroutines allocate only when none is free to reuse.
func TestEncodeDecodeAllocsFlat(t *testing.T) {
	allocs := func(logN int) (enc, dec float64) {
		p := MustParameters(logN, 28, 4, 2)
		p.RingQP = p.RingQP.WithParallelism(1)
		e := NewEncoder(p)
		vals := randomSlots(rand.New(rand.NewSource(9)), p.Slots())
		pt, err := e.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		enc = testing.AllocsPerRun(5, func() {
			if _, err := e.Encode(vals); err != nil {
				t.Fatal(err)
			}
		})
		dec = testing.AllocsPerRun(5, func() { e.Decode(pt) })
		return enc, dec
	}
	enc12, dec12 := allocs(12)
	enc14, dec14 := allocs(14)
	if enc12 != enc14 || dec12 != dec14 {
		t.Fatalf("allocations per call: Encode %v at logN 12, %v at logN 14; Decode %v and %v", enc12, enc14, dec12, dec14)
	}
}

// TestClientAllocsOutputOnly holds the client path to what it returns:
// at logN 12 on one limb worker, Encode, Encrypt, Decrypt and Decode
// each allocate at most their output's bytes plus 8 KiB per call, in
// the steady state and on the first call after two collections.
func TestClientAllocsOutputOnly(t *testing.T) {
	p := MustParameters(12, 28, 6, 3)
	p.RingQP = p.RingQP.WithParallelism(1)
	kg := NewKeyGenerator(p, 5)
	sk := kg.GenSecretKey()
	enc, ctr, dec := NewEncoder(p), NewEncryptor(p, kg.GenPublicKey(sk), 6), NewDecryptor(p, sk)
	vals := randomSlots(rand.New(rand.NewSource(10)), p.Slots())
	pt, err := enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := ctr.Encrypt(pt)
	poly := uint64(p.L * p.N() * 8)
	for _, op := range []struct {
		name string
		out  uint64
		f    func()
	}{
		{"Encode", poly, func() {
			if _, err := enc.Encode(vals); err != nil {
				t.Fatal(err)
			}
		}},
		{"Encrypt", 2 * poly, func() { ctr.Encrypt(pt) }},
		{"Decrypt", poly, func() { dec.Decrypt(ct) }},
		{"Decode", uint64(p.Slots() * 16), func() { enc.Decode(pt) }},
	} {
		op.f() // warm the scratch buffers and the decode basis
		const calls = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			op.f()
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("%s: %d bytes per call, output %d", op.name, perCall, op.out)
		if perCall > op.out+8<<10 {
			t.Errorf("%s: %d bytes per call, over the %d-byte output + 8 KiB", op.name, perCall, op.out)
		}
		if _, bytes := allocsAfterGC(op.f); bytes > op.out+8<<10 {
			t.Errorf("%s: %d bytes after two collections, over the %d-byte output + 8 KiB", op.name, bytes, op.out)
		}
	}
}

// allocsAfterGC runs f once right after two garbage collections and
// returns the heap objects and bytes that call allocated: scratch memory
// that a collection could drop would be allocated again here. Like
// testing.AllocsPerRun it runs on one P, so that no other goroutine's
// allocations are counted.
func allocsAfterGC(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestEncoderConcurrent runs Encode and Decode from several goroutines
// on one Encoder over fresh Parameters, so they share its scratch list
// and fill the decode-basis cache at once (run under -race), and
// checks each result against a serial run.
func TestEncoderConcurrent(t *testing.T) {
	p := MustParameters(10, 28, 6, 3)
	enc := NewEncoder(p)
	rng := rand.New(rand.NewSource(11))
	const workers = 4
	inputs := make([][]complex128, workers)
	for w := range inputs {
		inputs[w] = randomSlots(rng, p.Slots())
	}
	round := func(vals []complex128, level int) ([]complex128, error) {
		pt, err := enc.EncodeAtLevel(vals, level, p.Scale)
		if err != nil {
			return nil, err
		}
		return enc.Decode(pt), nil
	}
	got := make([][]complex128, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = round(inputs[w], w%p.L)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		want, err := round(inputs[w], w%p.L)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[w][j] != want[j] {
				t.Fatalf("goroutine %d slot %d: %v, serial run %v", w, j, got[w][j], want[j])
			}
		}
	}
}
