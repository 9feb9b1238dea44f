package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64()
	}
	return v
}

func randPerm(rng *rand.Rand, n int) Permutation {
	p := Identity(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestIdentity(t *testing.T) {
	p := Identity(8)
	if !p.IsIdentity() {
		t.Fatal("Identity is not identity")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v := randVec(rng, 8)
	if got := p.ApplyNew(v); !vecEq(got, v) {
		t.Fatal("identity changed vector")
	}
}

func vecEq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestValidate(t *testing.T) {
	if err := (Permutation{0, 0, 1}).Validate(); err == nil {
		t.Error("expected error for repeated entry")
	}
	if err := (Permutation{0, 3}).Validate(); err == nil {
		t.Error("expected error for out-of-range entry")
	}
	if err := (Permutation{-1, 0}).Validate(); err == nil {
		t.Error("expected error for negative entry")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		p := randPerm(rng, 32)
		inv := p.Inverse()
		if !p.Compose(inv).IsIdentity() || !inv.Compose(p).IsIdentity() {
			t.Fatal("p∘p⁻¹ != id")
		}
		v := randVec(rng, 32)
		if !vecEq(inv.ApplyNew(p.ApplyNew(v)), v) {
			t.Fatal("inverse apply does not undo apply")
		}
	}
}

func TestComposeMatchesSequentialApply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randPerm(rng, 64)
	q := randPerm(rng, 64)
	v := randVec(rng, 64)
	seq := p.ApplyNew(q.ApplyNew(v))
	fused := p.Compose(q).ApplyNew(v)
	if !vecEq(seq, fused) {
		t.Fatal("Compose does not match sequential Apply")
	}
}

func TestBitReverse(t *testing.T) {
	p, err := BitReverse(8)
	if err != nil {
		t.Fatal(err)
	}
	want := Permutation{0, 4, 2, 6, 1, 5, 3, 7}
	if !p.Equal(want) {
		t.Fatalf("BitReverse(8) = %v want %v", p, want)
	}
	// Involution.
	if !p.Compose(p).IsIdentity() {
		t.Fatal("bit reversal is not an involution")
	}
	if _, err := BitReverse(12); err == nil {
		t.Error("expected error for non-power-of-two")
	}
	if _, err := BitReverse(0); err == nil {
		t.Error("expected error for zero")
	}
}

func TestTransposePermutation(t *testing.T) {
	// 2×3 matrix [0 1 2; 3 4 5] transposed is [0 3; 1 4; 2 5].
	p := Transpose(2, 3)
	in := []uint64{0, 1, 2, 3, 4, 5}
	want := []uint64{0, 3, 1, 4, 2, 5}
	if got := p.ApplyNew(in); !vecEq(got, want) {
		t.Fatalf("transpose permutation: %v want %v", got, want)
	}
	// Transpose(r,c) ∘ Transpose(c,r) = id.
	if !Transpose(3, 2).Compose(Transpose(2, 3)).IsIdentity() {
		t.Fatal("transpose round trip is not identity")
	}
}

func TestDigitSwap(t *testing.T) {
	// For R=C, digit swap equals the square transpose.
	if !DigitSwap(4, 4).Equal(Transpose(4, 4)) {
		t.Fatal("square DigitSwap != Transpose")
	}
	p := DigitSwap(2, 4) // R=2, C=4, n=8
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// slot j2·R+j1 = natural j2 + C·j1
	for j2 := 0; j2 < 4; j2++ {
		for j1 := 0; j1 < 2; j1++ {
			if p[j2*2+j1] != j2+4*j1 {
				t.Fatalf("DigitSwap[%d] = %d", j2*2+j1, p[j2*2+j1])
			}
		}
	}
}

func TestEmbedIntoVecParam(t *testing.T) {
	// π(a ⊙ w) == π(a) ⊙ π(w): embedding the permutation into the
	// parameter gives the permuted result from permuted input.
	rng := rand.New(rand.NewSource(5))
	n := 32
	pi := randPerm(rng, n)
	a, w := randVec(rng, n), randVec(rng, n)
	prod := make([]uint64, n)
	for i := range prod {
		prod[i] = a[i] * w[i]
	}
	want := pi.ApplyNew(prod)
	pa := pi.ApplyNew(a)
	pw := EmbedIntoVecParam(pi, w)
	got := make([]uint64, n)
	for i := range got {
		got[i] = pa[i] * pw[i]
	}
	if !vecEq(got, want) {
		t.Fatal("vec-param embedding identity violated")
	}
}

func matMulU64(a []uint64, ar, ac int, b []uint64, bc int) []uint64 {
	out := make([]uint64, ar*bc)
	for i := 0; i < ar; i++ {
		for j := 0; j < bc; j++ {
			var acc uint64
			for k := 0; k < ac; k++ {
				acc += a[i*ac+k] * b[k*bc+j]
			}
			out[i*bc+j] = acc
		}
	}
	return out
}

func TestEmbedIntoMatRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows, cols, w := 8, 6, 4
	pi := randPerm(rng, rows)
	a := randVec(rng, rows*cols)
	x := randVec(rng, cols*w)
	// (P@A)@X == P@(A@X)
	pa, err := EmbedIntoMatRows(pi, a, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	lhs := matMulU64(pa, rows, cols, x, w)
	ax := matMulU64(a, rows, cols, x, w)
	want := make([]uint64, rows*w)
	for i, src := range pi {
		copy(want[i*w:(i+1)*w], ax[src*w:(src+1)*w])
	}
	if !vecEq(lhs, want) {
		t.Fatal("row embedding identity violated")
	}
	if _, err := EmbedIntoMatRows(pi, a, rows+1, cols); err == nil {
		t.Error("expected shape error")
	}
}

func TestEmbedIntoMatCols(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows, cols := 5, 8
	pi := randPerm(rng, cols)
	a := randVec(rng, rows*cols)
	x := randVec(rng, cols)
	// (A with permuted cols) @ π(x) == A @ x ... with gather convention:
	// colEmbed[i][j] = A[i][π(j)], input x' with x'[j] = x[π(j)].
	pa, err := EmbedIntoMatCols(pi, a, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	px := pi.ApplyNew(x)
	lhs := matMulU64(pa, rows, cols, px, 1)
	want := matMulU64(a, rows, cols, x, 1)
	if !vecEq(lhs, want) {
		t.Fatal("column embedding identity violated")
	}
	if _, err := EmbedIntoMatCols(pi, a, rows, cols+1); err == nil {
		t.Error("expected shape error")
	}
}

func TestTransposeMatIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r, c, w := 6, 5, 7
	a := randVec(rng, r*c)
	b := randVec(rng, c*w)
	// (A@B)ᵀ == Bᵀ@Aᵀ — the MAT transpose-elimination identity.
	ab := matMulU64(a, r, c, b, w)
	lhs := TransposeMat(ab, r, w)
	rhs := matMulU64(TransposeMat(b, c, w), w, c, TransposeMat(a, r, c), r)
	if !vecEq(lhs, rhs) {
		t.Fatal("(A@B)ᵀ != Bᵀ@Aᵀ")
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := []uint64{1, 2, 2, 3}
	if !IsSymmetric(sym, 2) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := []uint64{1, 2, 3, 4}
	if IsSymmetric(asym, 2) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

// Property: permutation group laws.
func TestPermGroupQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(60)
		p, q, s := randPerm(r, n), randPerm(r, n), randPerm(r, n)
		// Associativity.
		if !p.Compose(q).Compose(s).Equal(p.Compose(q.Compose(s))) {
			return false
		}
		// Inverse of compose.
		if !p.Compose(q).Inverse().Equal(q.Inverse().Compose(p.Inverse())) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
