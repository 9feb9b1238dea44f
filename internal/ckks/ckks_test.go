package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Test parameters: small enough to run the full pipeline quickly,
// structured like the paper's sets (28-bit primes, dnum=3).
func testParams(t testing.TB) *Parameters {
	t.Helper()
	return MustParameters(10, 28, 6, 3)
}

type testContext struct {
	p   *Parameters
	enc *Encoder
	kg  *KeyGenerator
	sk  *SecretKey
	pk  *PublicKey
	ctr *Encryptor
	dec *Decryptor
	ev  *Evaluator
}

func newTestContext(t testing.TB, rotations []int) *testContext {
	t.Helper()
	return newTestContextFor(t, testParams(t), rotations)
}

// newTestContextFor is newTestContext over the given parameters.
func newTestContextFor(t testing.TB, p *Parameters, rotations []int) *testContext {
	t.Helper()
	kg := NewKeyGenerator(p, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	var gks map[uint64]*GaloisKey
	if len(rotations) > 0 {
		var err error
		gks, err = kg.GenRotationKeys(sk, rotations)
		if err != nil {
			t.Fatal(err)
		}
		conj, err := kg.GenGaloisKey(sk, p.RingQP.GaloisElementForConjugation())
		if err != nil {
			t.Fatal(err)
		}
		gks[conj.GaloisEl] = conj
	}
	return &testContext{
		p: p, enc: NewEncoder(p), kg: kg, sk: sk, pk: pk,
		ctr: NewEncryptor(p, pk, 11), dec: NewDecryptor(p, sk),
		ev: NewEvaluator(p, rlk, gks),
	}
}

func randomSlots(rng *rand.Rand, n int) []complex128 {
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return z
}

func maxErr(got, want []complex128) float64 {
	var m float64
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}

func TestParametersValidation(t *testing.T) {
	if _, err := NewParameters(2, 28, 4, 2); err == nil {
		t.Error("expected error for tiny logN")
	}
	if _, err := NewParameters(10, 28, 0, 1); err == nil {
		t.Error("expected error for L=0")
	}
	if _, err := NewParameters(10, 28, 4, 5); err == nil {
		t.Error("expected error for dnum > L")
	}
	if _, err := NewParameters(10, 50, 4, 2); err == nil {
		t.Error("expected error for oversized scale")
	}
	p := testParams(t)
	if p.Alpha != 2 {
		t.Errorf("alpha = %d want ⌈6/3⌉ = 2", p.Alpha)
	}
	if p.Slots() != 512 || p.MaxLevel() != 5 {
		t.Error("derived parameters wrong")
	}
}

func TestDigitRange(t *testing.T) {
	p := testParams(t) // L=6, alpha=2
	cases := []struct{ j, lvl, lo, hi int }{
		{0, 5, 0, 2}, {1, 5, 2, 4}, {2, 5, 4, 6},
		{0, 2, 0, 2}, {1, 2, 2, 3}, // partial top digit
	}
	for _, c := range cases {
		lo, hi, ok := p.digitRange(c.j, c.lvl)
		if !ok || lo != c.lo || hi != c.hi {
			t.Errorf("digitRange(%d, %d) = (%d,%d,%v) want (%d,%d)", c.j, c.lvl, lo, hi, ok, c.lo, c.hi)
		}
	}
	if p.NumDigits(5) != 3 || p.NumDigits(2) != 2 || p.NumDigits(0) != 1 {
		t.Error("NumDigits wrong")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(1))
	z := randomSlots(rng, tc.p.Slots())
	pt, err := tc.enc.Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(pt)
	if e := maxErr(got, z); e > 1e-6 {
		t.Fatalf("encode/decode error %g", e)
	}
}

func TestEncodePartialSlots(t *testing.T) {
	tc := newTestContext(t, nil)
	z := []complex128{1 + 2i, -3, 0.5i}
	pt, err := tc.enc.Encode(z)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(pt)
	want := make([]complex128, tc.p.Slots())
	copy(want, z)
	if e := maxErr(got, want); e > 1e-6 {
		t.Fatalf("partial-slot error %g", e)
	}
	if _, err := tc.enc.Encode(make([]complex128, tc.p.Slots()+1)); err == nil {
		t.Error("expected error for too many slots")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(2))
	z := randomSlots(rng, tc.p.Slots())
	pt, _ := tc.enc.Encode(z)
	ct := tc.ctr.Encrypt(pt)
	got := tc.enc.Decode(tc.dec.Decrypt(ct))
	if e := maxErr(got, z); e > 1e-4 {
		t.Fatalf("encrypt/decrypt error %g", e)
	}
}

func TestHEAdd(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(3))
	z1 := randomSlots(rng, tc.p.Slots())
	z2 := randomSlots(rng, tc.p.Slots())
	pt1, _ := tc.enc.Encode(z1)
	pt2, _ := tc.enc.Encode(z2)
	ct1, ct2 := tc.ctr.Encrypt(pt1), tc.ctr.Encrypt(pt2)
	sum, err := tc.ev.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] + z2[i]
	}
	got := tc.enc.Decode(tc.dec.Decrypt(sum))
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("HE-Add error %g", e)
	}

	diff, err := tc.ev.Sub(sum, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got = tc.enc.Decode(tc.dec.Decrypt(diff))
	if e := maxErr(got, z1); e > 1e-4 {
		t.Fatalf("HE-Sub error %g", e)
	}
}

func TestHEMultRelinRescale(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(4))
	z1 := randomSlots(rng, tc.p.Slots())
	z2 := randomSlots(rng, tc.p.Slots())
	pt1, _ := tc.enc.Encode(z1)
	pt2, _ := tc.enc.Encode(z2)
	ct1, ct2 := tc.ctr.Encrypt(pt1), tc.ctr.Encrypt(pt2)

	prod, err := tc.ev.MulRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = tc.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Level != tc.p.MaxLevel()-1 {
		t.Fatalf("level after rescale = %d", prod.Level)
	}
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] * z2[i]
	}
	got := tc.enc.Decode(tc.dec.Decrypt(prod))
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("HE-Mult error %g", e)
	}
}

func TestMultChain(t *testing.T) {
	// Squaring chain x → x^4 across two levels.
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(5))
	z := randomSlots(rng, tc.p.Slots())
	pt, _ := tc.enc.Encode(z)
	ct := tc.ctr.Encrypt(pt)

	sq, err := tc.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	sq, _ = tc.ev.Rescale(sq)
	quad, err := tc.ev.MulRelin(sq, sq)
	if err != nil {
		t.Fatal(err)
	}
	quad, _ = tc.ev.Rescale(quad)

	want := make([]complex128, len(z))
	for i := range want {
		w := z[i] * z[i]
		want[i] = w * w
	}
	got := tc.enc.Decode(tc.dec.Decrypt(quad))
	if e := maxErr(got, want); e > 5e-2 {
		t.Fatalf("x^4 chain error %g", e)
	}
}

func TestPlainOps(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(6))
	z := randomSlots(rng, tc.p.Slots())
	w := randomSlots(rng, tc.p.Slots())
	ptz, _ := tc.enc.Encode(z)
	ptw, _ := tc.enc.Encode(w)
	ct := tc.ctr.Encrypt(ptz)

	sum, err := tc.ev.AddPlain(ct, ptw)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := make([]complex128, len(z))
	for i := range wantSum {
		wantSum[i] = z[i] + w[i]
	}
	if e := maxErr(tc.enc.Decode(tc.dec.Decrypt(sum)), wantSum); e > 1e-4 {
		t.Fatalf("AddPlain error %g", e)
	}

	prod, err := tc.ev.MulPlain(ct, ptw)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ = tc.ev.Rescale(prod)
	wantProd := make([]complex128, len(z))
	for i := range wantProd {
		wantProd[i] = z[i] * w[i]
	}
	if e := maxErr(tc.enc.Decode(tc.dec.Decrypt(prod)), wantProd); e > 1e-2 {
		t.Fatalf("MulPlain error %g", e)
	}
}

func TestRotate(t *testing.T) {
	rots := []int{1, 3, 7}
	tc := newTestContext(t, rots)
	rng := rand.New(rand.NewSource(7))
	z := randomSlots(rng, tc.p.Slots())
	pt, _ := tc.enc.Encode(z)
	ct := tc.ctr.Encrypt(pt)

	for _, k := range rots {
		rot, err := tc.ev.Rotate(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, len(z))
		for i := range want {
			want[i] = z[(i+k)%len(z)]
		}
		got := tc.enc.Decode(tc.dec.Decrypt(rot))
		if e := maxErr(got, want); e > 1e-2 {
			t.Fatalf("rotate by %d: error %g", k, e)
		}
	}
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t, []int{1})
	rng := rand.New(rand.NewSource(8))
	z := randomSlots(rng, tc.p.Slots())
	pt, _ := tc.enc.Encode(z)
	ct := tc.ctr.Encrypt(pt)
	conj, err := tc.ev.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(z))
	for i := range want {
		want[i] = cmplx.Conj(z[i])
	}
	got := tc.enc.Decode(tc.dec.Decrypt(conj))
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("conjugate error %g", e)
	}
}

func TestRotateMissingKey(t *testing.T) {
	tc := newTestContext(t, []int{1})
	pt, _ := tc.enc.Encode([]complex128{1})
	ct := tc.ctr.Encrypt(pt)
	if _, err := tc.ev.Rotate(ct, 5); err == nil {
		t.Error("expected error for missing rotation key")
	}
}

func TestLevelAndScaleGuards(t *testing.T) {
	tc := newTestContext(t, nil)
	pt, _ := tc.enc.Encode([]complex128{1})
	ct1 := tc.ctr.Encrypt(pt)
	ct2, err := tc.ev.DropLevel(ct1.CopyNew(), ct1.Level-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.ev.Add(ct1, ct2); err == nil {
		t.Error("expected level-mismatch error")
	}
	bad := ct1.CopyNew()
	bad.Scale *= 2
	if _, err := tc.ev.Add(ct1, bad); err == nil {
		t.Error("expected scale-mismatch error")
	}
	at0, err := tc.ev.DropLevel(ct1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.ev.Rescale(at0); err == nil {
		t.Error("expected rescale-at-level-0 error")
	}
	if _, err := tc.ev.DropLevel(ct1, 99); err == nil {
		t.Error("expected drop-level range error")
	}
}

func TestMulWithoutRelinKey(t *testing.T) {
	tc := newTestContext(t, nil)
	ev := NewEvaluator(tc.p, nil, nil)
	pt, _ := tc.enc.Encode([]complex128{1})
	ct := tc.ctr.Encrypt(pt)
	if _, err := ev.MulRelin(ct, ct); err == nil {
		t.Error("expected missing-relin-key error")
	}
}

func TestDecryptAtLowerLevels(t *testing.T) {
	// Correctness must survive the full rescale ladder.
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(9))
	z := randomSlots(rng, tc.p.Slots())
	pt, _ := tc.enc.Encode(z)
	ct := tc.ctr.Encrypt(pt)
	for lvl := ct.Level; lvl > 0; lvl-- {
		var err error
		ct, err = tc.ev.DropLevel(ct, lvl-1)
		if err != nil {
			t.Fatal(err)
		}
		got := tc.enc.Decode(tc.dec.Decrypt(ct))
		if e := maxErr(got, z); e > 1e-3 {
			t.Fatalf("level %d: error %g", lvl-1, e)
		}
	}
}

func TestKernelCountersMatchCrossSchedule(t *testing.T) {
	// The functional evaluator and the TPU lowering must agree on the
	// key-switch kernel counts (same Scheduling layer, §III-A).
	tc := newTestContext(t, []int{1})
	pt, _ := tc.enc.Encode([]complex128{1, 2, 3})
	ct := tc.ctr.Encrypt(pt)

	tc.ev.ResetCounters()
	if _, err := tc.ev.Rotate(ct, 1); err != nil {
		t.Fatal(err)
	}
	kc := tc.ev.Kc

	// Expected from the hybrid schedule at L=6, alpha=2, dnum=3:
	// keySwitch: INTT(L) + per digit NTT(ext−digit) + ModDown 2×(INTT α + NTT L).
	l, alpha, dnum := 6, 2, 3
	ext := l + alpha
	wantINTT := l + 2*alpha
	// Per digit, the ext basis has l+alpha limbs of which alpha stay in
	// the NTT domain: NTT count per digit = ext − alpha = l; ModDown
	// adds 2·l — exactly cross.Compiler's keySwitchCounts shape.
	wantNTT := dnum*(ext-alpha) + 2*l
	if kc.INTTLimbs != wantINTT {
		t.Errorf("INTT limbs = %d want %d", kc.INTTLimbs, wantINTT)
	}
	if kc.NTTLimbs != wantNTT {
		t.Errorf("NTT limbs = %d want %d", kc.NTTLimbs, wantNTT)
	}
	// dnum ModUp conversions plus one ModDown conversion per output poly.
	if kc.BConvCalls != dnum+2 {
		t.Errorf("BConv calls = %d want %d", kc.BConvCalls, dnum+2)
	}
	if kc.Automorph != 2*l {
		t.Errorf("automorphism limbs = %d want %d", kc.Automorph, 2*l)
	}
}

func TestScaleTracksThroughPipeline(t *testing.T) {
	tc := newTestContext(t, nil)
	pt, _ := tc.enc.Encode([]complex128{0.5})
	ct := tc.ctr.Encrypt(pt)
	prod, err := tc.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(prod.Scale/(ct.Scale*ct.Scale)-1) > 1e-12 {
		t.Error("mult should square the scale")
	}
	res, _ := tc.ev.Rescale(prod)
	expected := prod.Scale / float64(tc.p.QPrimes[prod.Level])
	if math.Abs(res.Scale/expected-1) > 1e-12 {
		t.Error("rescale scale bookkeeping wrong")
	}
}
