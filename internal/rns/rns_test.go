package rns

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"cross/internal/modarith"
)

func testBases(t *testing.T) (*Basis, *Basis) {
	t.Helper()
	n := uint64(1 << 10)
	qs, err := modarith.GenerateNTTPrimes(28, n, 6)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := modarith.GenerateNTTPrimesAvoiding(28, n, 4, qs)
	if err != nil {
		t.Fatal(err)
	}
	return MustBasis(qs), MustBasis(ps)
}

func TestBasisEncodeDecodeRoundTrip(t *testing.T) {
	b, _ := testBases(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x := new(big.Int).Rand(rng, b.Q)
		res := b.Encode(x)
		got := b.Decode(res)
		if got.Cmp(x) != 0 {
			t.Fatalf("round trip: %v -> %v", x, got)
		}
	}
}

func TestBasisEncodeNegative(t *testing.T) {
	b, _ := testBases(t)
	x := big.NewInt(-12345)
	res := b.Encode(x)
	got := b.DecodeCentered(res)
	if got.Cmp(x) != 0 {
		t.Fatalf("centered decode of negative: got %v want %v", got, x)
	}
}

func TestDecodeCenteredRange(t *testing.T) {
	b, _ := testBases(t)
	rng := rand.New(rand.NewSource(2))
	half := new(big.Int).Rsh(b.Q, 1)
	negHalf := new(big.Int).Neg(half)
	for i := 0; i < 50; i++ {
		x := new(big.Int).Rand(rng, b.Q)
		c := b.DecodeCentered(b.Encode(x))
		if c.Cmp(negHalf) < 0 || c.Cmp(half) >= 0 {
			t.Fatalf("centered value %v outside [-Q/2, Q/2)", c)
		}
	}
}

func TestBasisErrors(t *testing.T) {
	if _, err := NewBasis(nil); err == nil {
		t.Error("expected error for empty basis")
	}
	if _, err := NewBasis([]uint64{12289, 12289}); err == nil {
		t.Error("expected error for duplicate modulus")
	}
	if _, err := NewBasis([]uint64{15}); err == nil {
		t.Error("expected error for composite modulus")
	}
}

func TestBasisPrefixExtend(t *testing.T) {
	b, aux := testBases(t)
	pre, err := b.Prefix(3)
	if err != nil {
		t.Fatal(err)
	}
	if pre.L() != 3 {
		t.Fatalf("prefix length %d", pre.L())
	}
	wantQ := big.NewInt(1)
	for _, q := range b.Primes()[:3] {
		wantQ.Mul(wantQ, new(big.Int).SetUint64(q))
	}
	if pre.Q.Cmp(wantQ) != 0 {
		t.Fatal("prefix Q mismatch")
	}
	if _, err := b.Prefix(0); err == nil {
		t.Error("expected error for prefix 0")
	}
	if _, err := b.Prefix(b.L() + 1); err == nil {
		t.Error("expected error for prefix too long")
	}
	ext, err := b.Extend(aux.Primes())
	if err != nil {
		t.Fatal(err)
	}
	if ext.L() != b.L()+aux.L() {
		t.Fatalf("extend length %d", ext.L())
	}
}

func TestConverterDisjointnessCheck(t *testing.T) {
	b, _ := testBases(t)
	if _, err := NewConverter(b, b); err == nil {
		t.Error("expected error converting basis to itself")
	}
}

func TestConvertExactMatchesCRT(t *testing.T) {
	from, to := testBases(t)
	conv, err := NewConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := 64
	in := AllocLimbs(from.L(), n)
	want := make([]*big.Int, n)
	for k := 0; k < n; k++ {
		x := new(big.Int).Rand(rng, from.Q)
		want[k] = x
		res := from.Encode(x)
		for i := range in {
			in[i][k] = res[i]
		}
	}
	out := conv.ConvertExact(in)
	for k := 0; k < n; k++ {
		for j, m := range to.Moduli {
			exp := new(big.Int).Mod(want[k], new(big.Int).SetUint64(m.Q)).Uint64()
			if out[j][k] != exp {
				t.Fatalf("coeff %d limb %d: got %d want %d", k, j, out[j][k], exp)
			}
		}
	}
}

func TestConvertApproxOverflowBounded(t *testing.T) {
	from, to := testBases(t)
	conv, err := NewConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	n := 32
	in := AllocLimbs(from.L(), n)
	xs := make([]*big.Int, n)
	for k := 0; k < n; k++ {
		x := new(big.Int).Rand(rng, from.Q)
		xs[k] = x
		res := from.Encode(x)
		for i := range in {
			in[i][k] = res[i]
		}
	}
	out := conv.ConvertApprox(in)
	bound := conv.OverflowBound()
	for k := 0; k < n; k++ {
		// The approximate result must equal x + e·Q mod p for a single
		// e in [0, L) consistent across all target limbs.
		found := false
		for e := uint64(0); e < bound; e++ {
			ok := true
			shifted := new(big.Int).Add(xs[k], new(big.Int).Mul(new(big.Int).SetUint64(e), from.Q))
			for j, m := range to.Moduli {
				exp := new(big.Int).Mod(shifted, new(big.Int).SetUint64(m.Q)).Uint64()
				if out[j][k] != exp {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("coeff %d: approx result not of the form x + e·Q for e < %d", k, bound)
		}
	}
}

// TestConvertApproxIntoZeroAllocs holds ConvertApproxInto to no
// allocation once the converter's Step 1 matrix is sized: in the steady
// state, on the first call after two collections, and after a larger
// call (a shorter call reuses the matrix it grew), with results equal
// to a fresh converter's.
func TestConvertApproxIntoZeroAllocs(t *testing.T) {
	from, to := testBases(t)
	conv, err := NewConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	const n = 64
	in := AllocLimbs(from.L(), n)
	for i, m := range from.Moduli {
		for k := range in[i] {
			in[i][k] = rng.Uint64() % m.Q
		}
	}
	out := AllocLimbs(to.L(), n)
	conv.ConvertApproxInto(AllocLimbs(to.L(), 2*n), AllocLimbs(from.L(), 2*n))
	if avg := testing.AllocsPerRun(50, func() { conv.ConvertApproxInto(out, in) }); avg != 0 {
		t.Fatalf("ConvertApproxInto allocates %.2f/op, want 0", avg)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as in AllocsPerRun
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conv.ConvertApproxInto(out, in)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("ConvertApproxInto allocates %d objects after two collections, want 0", n)
	}
	fresh, err := NewConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.ConvertApprox(in)
	for j := range want {
		for k := range want[j] {
			if out[j][k] != want[j][k] {
				t.Fatalf("limb %d coeff %d: %d, want %d", j, k, out[j][k], want[j][k])
			}
		}
	}
}

// widthBases returns disjoint l- and lp-prime bases of bits-bit
// NTT-friendly primes.
func widthBases(tb testing.TB, bits uint, l, lp int) (*Basis, *Basis) {
	tb.Helper()
	ps, err := modarith.GenerateNTTPrimes(bits, 1<<10, l+lp)
	if err != nil {
		tb.Fatal(err)
	}
	return MustBasis(ps[:l]), MustBasis(ps[l:])
}

// TestStep2MatchesNaiveMatMul checks both Step2 accumulators against a
// math/big matmul: 28-bit bases take the one-word sum, 45- and 60-bit
// bases the 128-bit one. n = 70 covers two full tiles and a tail.
func TestStep2MatchesNaiveMatMul(t *testing.T) {
	for _, tc := range []struct {
		bits    uint
		oneWord bool
	}{{28, true}, {45, false}, {60, false}} {
		t.Run(fmt.Sprintf("%dbit", tc.bits), func(t *testing.T) {
			from, to := widthBases(t, tc.bits, 6, 4)
			conv, err := NewConverter(from, to)
			if err != nil {
				t.Fatal(err)
			}
			if conv.oneWord != tc.oneWord {
				t.Fatalf("oneWord = %v want %v", conv.oneWord, tc.oneWord)
			}
			rng := rand.New(rand.NewSource(5))
			n := 70
			y := AllocLimbs(from.L(), n)
			for i, m := range from.Moduli {
				for k := range y[i] {
					y[i][k] = rng.Uint64() % m.Q
				}
				y[i][0] = m.Q - 1 // the largest sum the bound allows
			}
			out := AllocLimbs(to.L(), n)
			conv.Step2(out, y)
			tab := conv.Table()
			for j, m := range to.Moduli {
				p := new(big.Int).SetUint64(m.Q)
				for k := 0; k < n; k++ {
					want, term := new(big.Int), new(big.Int)
					for i := range y {
						term.SetUint64(y[i][k])
						want.Add(want, term.Mul(term, new(big.Int).SetUint64(tab[j][i])))
					}
					if w := want.Mod(want, p).Uint64(); out[j][k] != w {
						t.Fatalf("limb %d coeff %d: got %d want %d", j, k, out[j][k], w)
					}
				}
			}
		})
	}
}

// TestStep2OneWordBound pins the predicate at its edge. The generator's
// b-bit primes sit near 0.75·2^b, so a product of two is ≈0.56·2^(2b):
// seven 31-bit products fit one word and eight do not; one 32-bit
// product fits and two do not.
func TestStep2OneWordBound(t *testing.T) {
	for _, tc := range []struct {
		bits uint
		l    int
		want bool
	}{{28, 60, true}, {31, 7, true}, {31, 8, false}, {32, 1, true}, {32, 2, false}, {33, 1, false}} {
		from, to := widthBases(t, tc.bits, tc.l, 2)
		if got := sumFitsWord(from, to); got != tc.want {
			t.Errorf("%d-bit, L=%d: sumFitsWord = %v want %v", tc.bits, tc.l, got, tc.want)
		}
	}
}

func TestCopyLimbs(t *testing.T) {
	in := AllocLimbs(2, 4)
	in[0][0] = 7
	out := CopyLimbs(in)
	out[0][0] = 9
	if in[0][0] != 7 {
		t.Fatal("CopyLimbs aliases input")
	}
	if CopyLimbs(nil) != nil {
		t.Fatal("CopyLimbs(nil) should be nil")
	}
}

// Property: Encode/Decode is a bijection on [0, Q).
func TestEncodeDecodeQuick(t *testing.T) {
	b := MustBasis([]uint64{12289, 40961, 65537})
	f := func(lo, hi uint64) bool {
		x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 32)
		x.Add(x, new(big.Int).SetUint64(lo))
		x.Mod(x, b.Q)
		return b.Decode(b.Encode(x)).Cmp(x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: encoding is a ring homomorphism limb-wise.
func TestRNSHomomorphismQuick(t *testing.T) {
	b := MustBasis([]uint64{12289, 40961, 65537})
	f := func(a0, b0 uint64) bool {
		x := new(big.Int).Mod(new(big.Int).SetUint64(a0), b.Q)
		y := new(big.Int).Mod(new(big.Int).SetUint64(b0), b.Q)
		rx, ry := b.Encode(x), b.Encode(y)
		sum := b.Encode(new(big.Int).Add(x, y))
		prod := b.Encode(new(big.Int).Mul(x, y))
		for i, m := range b.Moduli {
			if m.AddMod(rx[i], ry[i]) != sum[i] {
				return false
			}
			if m.MulMod(rx[i], ry[i]) != prod[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
