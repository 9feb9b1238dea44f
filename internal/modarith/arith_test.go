package modarith

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// testPrimes spans the modulus sizes the paper uses: 28-bit CKKS primes
// (Tab. IV), mid-size, and near the 61-bit ceiling.
var testPrimes = []uint64{
	268369921,           // 28-bit, ≡ 1 mod 2^17
	268582913,           // 28-bit
	1152921504606830593, // 60-bit, ≡ 1 mod 2^17
	97,                  // tiny, sanity
	12289,               // classic NTT prime (q ≡ 1 mod 2^12)
}

func TestNewModulusRejectsBad(t *testing.T) {
	cases := []struct {
		q    uint64
		name string
	}{
		{0, "zero"},
		{1, "one"},
		{2, "even prime too small"},
		{16, "even composite"},
		{15, "odd composite"},
		{1 << 62, "too wide"},
		{268369920, "even"},
	}
	for _, c := range cases {
		if _, err := NewModulus(c.q); err == nil {
			t.Errorf("NewModulus(%d) [%s]: expected error, got nil", c.q, c.name)
		}
	}
}

func TestIsPrimeAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := rng.Uint64() >> uint(rng.Intn(40))
		want := new(big.Int).SetUint64(n).ProbablyPrime(32)
		if got := IsPrime(n); got != want {
			t.Fatalf("IsPrime(%d) = %v, big.Int says %v", n, got, want)
		}
	}
	// Known Carmichael / strong pseudoprime stress values.
	for _, n := range []uint64{561, 1105, 1729, 2465, 2821, 6601, 3215031751, 3825123056546413051} {
		if IsPrime(n) {
			t.Errorf("IsPrime(%d) = true for composite", n)
		}
	}
}

func TestBasicOpsAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range testPrimes {
		m := MustModulus(q)
		bq := new(big.Int).SetUint64(q)
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			ba := new(big.Int).SetUint64(a)
			bb := new(big.Int).SetUint64(b)

			if got, want := m.AddMod(a, b), new(big.Int).Mod(new(big.Int).Add(ba, bb), bq).Uint64(); got != want {
				t.Fatalf("q=%d AddMod(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got, want := m.SubMod(a, b), new(big.Int).Mod(new(big.Int).Sub(ba, bb), bq).Uint64(); got != want {
				t.Fatalf("q=%d SubMod(%d,%d)=%d want %d", q, a, b, got, want)
			}
			if got, want := m.MulMod(a, b), new(big.Int).Mod(new(big.Int).Mul(ba, bb), bq).Uint64(); got != want {
				t.Fatalf("q=%d MulMod(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
	}
}

func TestMulModUnreducedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range testPrimes {
		if bits.Len64(q) > 32 {
			continue // unreduced-input path is exercised with room to spare
		}
		m := MustModulus(q)
		bq := new(big.Int).SetUint64(q)
		for i := 0; i < 100; i++ {
			a := rng.Uint64() // deliberately unreduced
			b := rng.Uint64() % (4 * q)
			want := new(big.Int).Mod(new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)), bq).Uint64()
			if got := m.MulMod(a, b); got != want {
				t.Fatalf("q=%d MulMod(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
	}
}

func TestReduceWideAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, q := range testPrimes {
		m := MustModulus(q)
		bq := new(big.Int).SetUint64(q)
		for i := 0; i < 300; i++ {
			hi, lo := rng.Uint64(), rng.Uint64()
			x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			x.Add(x, new(big.Int).SetUint64(lo))
			want := new(big.Int).Mod(x, bq).Uint64()
			if got := m.ReduceWide(hi, lo); got != want {
				t.Fatalf("q=%d ReduceWide(%d,%d)=%d want %d", q, hi, lo, got, want)
			}
		}
	}
}

// TestReduceOneWordEdges pins the one-word Barrett Reduce (and
// ReduceWide's hi == 0 branch) at the values where its single
// correction matters: around multiples of q and at the top of the word.
func TestReduceOneWordEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, q := range testPrimes {
		m := MustModulus(q)
		xs := []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, 2 * q, ^uint64(0), ^uint64(0) - q, (q - 1) * (q - 1)}
		for i := 0; i < 200; i++ {
			k := rng.Uint64() / q
			xs = append(xs, k*q, k*q+q-1, rng.Uint64())
		}
		for _, x := range xs {
			want := x % q
			if got := m.Reduce(x); got != want {
				t.Fatalf("q=%d Reduce(%d)=%d want %d", q, x, got, want)
			}
			if got := m.ReduceWide(0, x); got != want {
				t.Fatalf("q=%d ReduceWide(0, %d)=%d want %d", q, x, got, want)
			}
		}
	}
}

func TestPowAndInv(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, q := range testPrimes {
		m := MustModulus(q)
		for i := 0; i < 100; i++ {
			a := 1 + rng.Uint64()%(q-1)
			inv := m.InvMod(a)
			if got := m.MulMod(a, inv); got != 1 {
				t.Fatalf("q=%d InvMod(%d)=%d but a·inv=%d", q, a, inv, got)
			}
			// Fermat: a^(q-1) = 1.
			if got := m.PowMod(a, q-1); got != 1 {
				t.Fatalf("q=%d PowMod(%d, q-1)=%d want 1", q, a, got)
			}
		}
		if m.PowMod(0, 0) != 1 {
			t.Errorf("q=%d: 0^0 should be 1 by convention", q)
		}
	}
}

func TestInvModZeroPanics(t *testing.T) {
	m := MustModulus(97)
	defer func() {
		if recover() == nil {
			t.Fatal("InvMod(0) did not panic")
		}
	}()
	m.InvMod(0)
}

func TestPrimitiveRootOfUnity(t *testing.T) {
	for _, q := range []uint64{268369921, 12289, 1152921504606830593} {
		m := MustModulus(q)
		for n := uint64(2); n <= 1<<13 && (q-1)%n == 0; n <<= 1 {
			w, err := m.PrimitiveRootOfUnity(n)
			if err != nil {
				t.Fatalf("q=%d n=%d: %v", q, n, err)
			}
			if m.PowMod(w, n) != 1 {
				t.Fatalf("q=%d n=%d: w^n != 1", q, n)
			}
			if m.PowMod(w, n/2) != q-1 {
				t.Fatalf("q=%d n=%d: w^(n/2) != -1, order not exact", q, n)
			}
		}
	}
}

func TestPrimitiveRootErrors(t *testing.T) {
	m := MustModulus(97) // 96 = 2^5·3
	if _, err := m.PrimitiveRootOfUnity(64); err == nil {
		t.Error("expected ErrNoRoot for order 64 mod 97")
	}
	if _, err := m.PrimitiveRootOfUnity(6); err == nil {
		t.Error("expected error for non-power-of-two order")
	}
	if w, err := m.PrimitiveRootOfUnity(1); err != nil || w != 1 {
		t.Errorf("order 1 root = (%d, %v), want (1, nil)", w, err)
	}
}

// Property: the ring laws hold for the modular operations.
func TestRingLawsQuick(t *testing.T) {
	m := MustModulus(268369921)
	q := m.Q
	norm := func(x uint64) uint64 { return x % q }

	commAdd := func(a, b uint64) bool {
		a, b = norm(a), norm(b)
		return m.AddMod(a, b) == m.AddMod(b, a)
	}
	commMul := func(a, b uint64) bool {
		a, b = norm(a), norm(b)
		return m.MulMod(a, b) == m.MulMod(b, a)
	}
	assocMul := func(a, b, c uint64) bool {
		a, b, c = norm(a), norm(b), norm(c)
		return m.MulMod(m.MulMod(a, b), c) == m.MulMod(a, m.MulMod(b, c))
	}
	distrib := func(a, b, c uint64) bool {
		a, b, c = norm(a), norm(b), norm(c)
		return m.MulMod(a, m.AddMod(b, c)) == m.AddMod(m.MulMod(a, b), m.MulMod(a, c))
	}
	addInverse := func(a uint64) bool {
		a = norm(a)
		return m.AddMod(a, m.NegMod(a)) == 0
	}
	for name, f := range map[string]interface{}{
		"commAdd": commAdd, "commMul": commMul, "assocMul": assocMul,
		"distrib": distrib, "addInverse": addInverse,
	} {
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDivPow2ByQ(t *testing.T) {
	for _, q := range testPrimes {
		for _, shift := range []uint{40, 56, 64, 100, 122, 128} {
			hi, lo := divPow2ByQ(shift, q)
			got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			got.Add(got, new(big.Int).SetUint64(lo))
			want := new(big.Int).Lsh(big.NewInt(1), shift)
			want.Div(want, new(big.Int).SetUint64(q))
			if got.Cmp(want) != 0 {
				t.Fatalf("divPow2ByQ(%d, %d) = %v want %v", shift, q, got, want)
			}
		}
	}
}

func TestNegInvPow2(t *testing.T) {
	for _, q := range testPrimes {
		inv := negInvPow2(q)
		if q*(-inv) != 1 { // q · q⁻¹ ≡ 1 (mod 2^64)
			t.Fatalf("negInvPow2(%d): q·inv != -1 mod 2^64", q)
		}
	}
}
