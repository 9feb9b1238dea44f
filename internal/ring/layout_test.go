package ring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestLayoutInvariantMultiplication is MAT's central claim (§IV-B):
// element-wise evaluation-domain arithmetic does not care about the
// slot order, so the digit-swap layout — which requires zero runtime
// reordering — computes polynomial products bit-exactly.
func TestLayoutInvariantMultiplication(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, tc := range []struct{ n, r, c int }{{64, 8, 8}, {256, 4, 64}, {512, 32, 16}} {
		rg := testRing(t, tc.n, 2)
		plan, err := NewMatNTTPlan(rg, tc.r, tc.c, LayoutDigitSwap)
		if err != nil {
			t.Fatal(err)
		}
		a := randPoly(rng, rg)
		b := randPoly(rng, rg)
		want := rg.NewPoly()
		rg.MulPolyNaive(a, b, want)

		// Transform both operands into the digit-swap layout, multiply
		// pointwise, invert — no transpose, no bit-reverse, anywhere.
		plan.Forward(a)
		plan.Forward(b)
		got := rg.NewPoly()
		rg.MulCoeffs(a, b, got)
		plan.Inverse(got)
		if !got.Equal(want) {
			t.Fatalf("N=%d (R=%d,C=%d): layout-invariant product != negacyclic convolution", tc.n, tc.r, tc.c)
		}
	}
}

// TestMixedLayoutAddition: addition is equally layout-agnostic.
func TestLayoutInvariantAddition(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	rg := testRing(t, 128, 2)
	plan, err := NewMatNTTPlan(rg, 8, 16, LayoutDigitSwap)
	if err != nil {
		t.Fatal(err)
	}
	a := randPoly(rng, rg)
	b := randPoly(rng, rg)
	want := rg.NewPoly()
	rg.Add(a, b, want)

	plan.Forward(a)
	plan.Forward(b)
	sum := rg.NewPoly()
	rg.Add(a, b, sum)
	plan.Inverse(sum)
	if !sum.Equal(want) {
		t.Fatal("layout-invariant addition broken")
	}
}

// Property: for random (R, C) splits and random polynomials, the MAT
// plan is a bijection (forward∘inverse = id) in both layouts.
func TestMatNTTBijectionQuick(t *testing.T) {
	rg := testRing(t, 256, 1)
	plans := []*MatNTTPlan{}
	for _, rc := range [][2]int{{4, 64}, {16, 16}, {64, 4}} {
		for _, order := range []Layout{LayoutDigitSwap, LayoutBitRev} {
			p, err := NewMatNTTPlan(rg, rc[0], rc[1], order)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
	}
	q := rg.Moduli[0].Q
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := make([]uint64, 256)
		for i := range in {
			in[i] = r.Uint64() % q
		}
		for _, p := range plans {
			buf := append([]uint64(nil), in...)
			p.ForwardLimb(0, buf, buf)
			p.InverseLimb(0, buf, buf)
			for i := range buf {
				if buf[i] != in[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: NTT is multiplicative — NTT(a·b) = NTT(a) ⊙ NTT(b) — for
// the radix-2 path (the convolution theorem the whole HE stack rests
// on).
func TestConvolutionTheoremQuick(t *testing.T) {
	rg := testRing(t, 64, 1)
	m := rg.Moduli[0]
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := rg.NewPoly()
		b := rg.NewPoly()
		for i := range a.Coeffs[0] {
			a.Coeffs[0][i] = r.Uint64() % m.Q
			b.Coeffs[0][i] = r.Uint64() % m.Q
		}
		want := rg.NewPoly()
		rg.MulPolyNaive(a, b, want)
		rg.NTT(a)
		rg.NTT(b)
		prod := rg.NewPoly()
		rg.MulCoeffs(a, b, prod)
		rg.INTT(prod)
		return prod.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBitRevEmbeddedOffline pins MAT's embedding identities (Fig. 9) on
// the compiled plans: the bit-reversal a LayoutBitRev plan emits is a
// row permutation of T1 and TW, (P@A)@X = P@(A@X), and a column
// permutation of T3, (A@Pᵀ) read in π order; the inverse matrices
// absorb the same permutations on the side that reads the permuted
// layout. So the BitRev output is the DigitSwap output permuted, with
// no runtime reordering: slot j2·R+j1 holds DigitSwap slot
// brv_C(j2)·R+brv_R(j1).
func TestBitRevEmbeddedOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, tc := range []struct{ r, c int }{{4, 16}, {8, 8}, {16, 4}} {
		n := tc.r * tc.c
		rg := testRing(t, n, 1)
		ds, err := NewMatNTTPlan(rg, tc.r, tc.c, LayoutDigitSwap)
		if err != nil {
			t.Fatal(err)
		}
		br, err := NewMatNTTPlan(rg, tc.r, tc.c, LayoutBitRev)
		if err != nil {
			t.Fatal(err)
		}
		brvR := func(j int) int { return int(bitReverse(uint64(j), log2(tc.r))) }
		brvC := func(j int) int { return int(bitReverse(uint64(j), log2(tc.c))) }
		// rowsPermuted: b[i][k] = a[perm(i)][k]; colsPermuted: b[i][k] = a[i][perm(k)].
		rowsPermuted := func(a, b []uint64, cols int, perm func(int) int) bool {
			for i := 0; i < len(a)/cols; i++ {
				for k := 0; k < cols; k++ {
					if b[i*cols+k] != a[perm(i)*cols+k] {
						return false
					}
				}
			}
			return true
		}
		colsPermuted := func(a, b []uint64, cols int, perm func(int) int) bool {
			for i := 0; i < len(a)/cols; i++ {
				for k := 0; k < cols; k++ {
					if b[i*cols+k] != a[i*cols+perm(k)] {
						return false
					}
				}
			}
			return true
		}
		dT1, dTW, dT3 := ds.Matrices(0)
		bT1, bTW, bT3 := br.Matrices(0)
		dT3i, dTWi, dT1i := ds.InverseMatrices(0)
		bT3i, bTWi, bT1i := br.InverseMatrices(0)
		for _, chk := range []struct {
			name string
			ok   bool
		}{
			{"T1 rows", rowsPermuted(dT1, bT1, tc.c, brvC)},
			{"TW rows", rowsPermuted(dTW, bTW, tc.r, brvC)},
			{"T3 columns", colsPermuted(dT3, bT3, tc.r, brvR)},
			{"T3inv rows", rowsPermuted(dT3i, bT3i, tc.r, brvR)},
			{"TWinv rows", rowsPermuted(dTWi, bTWi, tc.r, brvC)},
			{"T1inv columns", colsPermuted(dT1i, bT1i, tc.c, brvC)},
		} {
			if !chk.ok {
				t.Errorf("R=%d C=%d: %s of the BitRev plan are not the DigitSwap %s bit-reversed", tc.r, tc.c, chk.name, chk.name)
			}
		}

		in := make([]uint64, n)
		for i := range in {
			in[i] = rng.Uint64() % rg.Moduli[0].Q
		}
		dOut := make([]uint64, n)
		bOut := make([]uint64, n)
		ds.ForwardLimb(0, in, dOut)
		br.ForwardLimb(0, in, bOut)
		for j2 := 0; j2 < tc.c; j2++ {
			for j1 := 0; j1 < tc.r; j1++ {
				if got, want := bOut[j2*tc.r+j1], dOut[brvC(j2)*tc.r+brvR(j1)]; got != want {
					t.Fatalf("R=%d C=%d slot (%d,%d): BitRev %d, permuted DigitSwap %d", tc.r, tc.c, j2, j1, got, want)
				}
			}
		}
	}
}
