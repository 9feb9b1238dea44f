package ckks

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cross/internal/simd"
)

// withKernels runs f with the AVX-512 kernels on (where the host has
// them) or off, and restores the dispatch.
func withKernels(on bool, f func()) {
	saved := simd.AVX512
	simd.AVX512 = saved && on
	defer func() { simd.AVX512 = saved }()
	f()
}

// TestKernelsBitExact runs key generation, Encrypt and every
// key-switching operator with the AVX-512 kernels on and off and
// requires identical ciphertext SHA-256 digests and kernel counters, at
// one and two limb workers. All logScale-28 primes are below 2^30, so
// that set takes the assembly NTT, Step 2 and key inner product; the
// logScale-40 set stays on the pure-Go kernels either way.
func TestKernelsBitExact(t *testing.T) {
	t.Logf("kernel backend: %s", simd.Kernels())
	for _, ps := range []struct {
		logScale uint
		vector   bool
	}{{28, true}, {40, false}} {
		p := MustParameters(10, ps.logScale, 6, 3)
		if narrow := slices.Max(append(slices.Clone(p.QPrimes), p.PPrimes...)) < 1<<30; narrow != ps.vector {
			t.Fatalf("logScale %d: primes below 2^30 = %v, want %v", ps.logScale, narrow, ps.vector)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("logScale%d/workers%d", ps.logScale, workers), func(t *testing.T) {
				var want []string
				var wantKc KernelCounters
				withKernels(true, func() { want, wantKc = kernelTour(t, ps.logScale, workers) })
				var got []string
				var kc KernelCounters
				withKernels(false, func() { got, kc = kernelTour(t, ps.logScale, workers) })
				if kc != wantKc {
					t.Errorf("kernel counters: pure Go %+v, AVX-512 %+v", kc, wantKc)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("ciphertext %d: pure Go sha256 %s, AVX-512 %s", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// kernelTour builds keys at logN 10, L 6, dnum 3 and returns the SHA-256
// of every ciphertext that Encrypt, MulPlain, Add, Sub, AddPlain,
// MulRelin, Rescale, Rotate, Conjugate, RotateHoisted and
// EvalLinearTransform produce and of the plaintext Decrypt returns,
// with the evaluator's kernel counters.
func kernelTour(t *testing.T, logScale uint, workers int) ([]string, KernelCounters) {
	t.Helper()
	p := MustParameters(10, logScale, 6, 3)
	p.RingQP = p.RingQP.WithParallelism(workers)
	rots := []int{1, 4}
	tc := newTestContextFor(t, p, rots)
	rng := rand.New(rand.NewSource(80))
	slots := p.Slots()
	diagonals := map[int][]complex128{}
	for _, d := range []int{0, 1, 5} {
		diagonals[d] = randomSlots(rng, slots)
	}
	lt, err := tc.ev.NewLinearTransform(tc.enc, diagonals, p.MaxLevel()-1, p.Scale)
	if err != nil {
		t.Fatal(err)
	}
	pt1, _ := tc.enc.Encode(randomSlots(rng, slots))
	pt2, _ := tc.enc.Encode(randomSlots(rng, slots))
	ct1, ct2 := tc.ctr.Encrypt(pt1), tc.ctr.Encrypt(pt2)
	must := func(ct *Ciphertext, err error) *Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	mulPlain := must(tc.ev.MulPlain(ct1, pt2))
	sum := must(tc.ev.Add(ct1, ct2))
	diff := must(tc.ev.Sub(ct1, ct2))
	addPlain := must(tc.ev.AddPlain(ct1, pt2))
	prod := must(tc.ev.MulRelin(ct1, ct2))
	res := must(tc.ev.Rescale(prod))
	rot := must(tc.ev.Rotate(res, 1))
	conj := must(tc.ev.Conjugate(res))
	mv := must(tc.ev.EvalLinearTransform(res, lt))
	hoisted, err := tc.ev.RotateHoisted(res, rots)
	if err != nil {
		t.Fatal(err)
	}
	var sums []string
	for _, ct := range append([]*Ciphertext{ct1, ct2, mulPlain, sum, diff, addPlain, prod, res, rot, conj, mv}, hoisted...) {
		var buf bytes.Buffer
		if _, err := ct.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())))
	}
	var buf bytes.Buffer
	if _, err := tc.dec.Decrypt(prod).Value.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sums = append(sums, fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())))
	return sums, tc.ev.Kc
}

// TestRescaleEmbeddingAVX512VsGo checks Rescale's centred lift of the
// top limb (VecReduceCentered) with the AVX-512 kernels on and off, for
// a top prime above and below the target prime, at the inputs where the
// lift changes sign (half, half+1) and at the ends of the range.
func TestRescaleEmbeddingAVX512VsGo(t *testing.T) {
	if !simd.AVX512 {
		t.Skip("no AVX-512: assembly twins not exercised")
	}
	p := MustParameters(10, 28, 4, 2)
	rng := rand.New(rand.NewSource(81))
	moduli := p.RingQP.Moduli
	for _, pair := range [][2]int{{0, 3}, {3, 0}, {1, 2}, {2, 1}} {
		m, qTop := moduli[pair[0]], moduli[pair[1]].Q
		half := qTop >> 1
		for _, n := range []int{8, 21, p.N()} {
			top := make([]uint64, n)
			for k := range top {
				top[k] = rng.Uint64() % qTop
			}
			copy(top, []uint64{half, half + 1, 0, qTop - 1})
			got := make([]uint64, n)
			m.VecReduceCentered(got, top, qTop)
			want := make([]uint64, n)
			withKernels(false, func() { m.VecReduceCentered(want, top, qTop) })
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("q=%d qTop=%d n=%d: [%d] AVX-512 %d, Go %d", m.Q, qTop, n, k, got[k], want[k])
				}
			}
			if want[0] != half%m.Q || want[1] != m.NegMod((qTop-half-1)%m.Q) || want[2] != 0 || want[3] != m.Q-1 {
				t.Fatalf("q=%d qTop=%d: centred lift of (half, half+1, 0, qTop−1) = %v", m.Q, qTop, want[:4])
			}
		}
	}
}

// TestKernelCountsPinned pins the kernel counters of MulRelin → Rescale
// → Rotate(1) at L 15, dnum 3, the shape of the keyswitch-setc request.
// The counts do not depend on N, so logN 10 serves; crossperf reports
// them per request as its ckks.* counts.
func TestKernelCountsPinned(t *testing.T) {
	tc := newTestContextFor(t, MustParameters(10, 28, 15, 3), []int{1})
	rng := rand.New(rand.NewSource(82))
	pt, _ := tc.enc.Encode(randomSlots(rng, tc.p.Slots()))
	ct := tc.ctr.Encrypt(pt)
	prod, err := tc.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tc.ev.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.ev.Rotate(res, 1); err != nil {
		t.Fatal(err)
	}
	want := KernelCounters{NTTLimbs: 174, INTTLimbs: 51, BConvCalls: 12, VecMulN: 380, VecAddN: 379, Automorph: 28}
	if tc.ev.Kc != want {
		t.Fatalf("kernel counters %+v, want %+v", tc.ev.Kc, want)
	}
}
