package rns

import (
	"math"
	"math/rand"
	"testing"

	"cross/internal/simd"
)

// withKernels runs f with simd.AVX512 set to on and restores it.
func withKernels(on bool, f func()) {
	saved := simd.AVX512
	simd.AVX512 = on
	defer func() { simd.AVX512 = saved }()
	f()
}

// FuzzStep2AVX512VsGo runs the one-word Step2 through the AVX-512
// multiply-accumulate and through the pure-Go loop and requires equal
// outputs. The bases reach the one-word bound (seven 31-bit source
// primes), the paper's 28-bit primes with 29-bit targets, and 32-bit
// primes, the widest the 32-bit lanes take; the top flag sets every
// residue to q_i − 1.
func FuzzStep2AVX512VsGo(f *testing.F) {
	if !simd.AVX512 {
		f.Skip("no AVX-512: assembly twins not exercised")
	}
	var convs []*Converter
	for _, b := range []struct {
		bits  uint
		l, lp int
	}{{31, 7, 3}, {28, 5, 8}, {28, 15, 2}, {32, 1, 2}, {28, 1, 1}} {
		from, to := widthBases(f, b.bits, b.l, b.lp)
		c, err := NewConverter(from, to)
		if err != nil {
			f.Fatal(err)
		}
		if !c.oneWord || !c.narrow {
			f.Fatalf("%d-bit L=%d: AVX-512 Step2 not selected (oneWord %v, narrow %v)", b.bits, b.l, c.oneWord, c.narrow)
		}
		convs = append(convs, c)
	}
	f.Add(uint8(0), int64(1), uint16(64), false)
	f.Add(uint8(1), int64(2), uint16(1024), true)
	f.Add(uint8(2), int64(-3), uint16(71), false)
	f.Add(uint8(3), int64(4), uint16(40), true)
	f.Add(uint8(4), int64(5), uint16(7), false)
	f.Fuzz(func(t *testing.T, cidx uint8, seed int64, nRaw uint16, top bool) {
		c := convs[int(cidx)%len(convs)]
		n := int(nRaw)%1100 + 1 // 32-wide tiles, 8-wide tiles and every tail
		rng := rand.New(rand.NewSource(seed))
		y := AllocLimbs(c.From.L(), n)
		for i, m := range c.From.Moduli {
			for k := range y[i] {
				y[i][k] = m.Q - 1
				if !top {
					y[i][k] = rng.Uint64() % m.Q
				}
			}
		}
		vec := AllocLimbs(c.To.L(), n)
		c.Step2(vec, y)
		ref := AllocLimbs(c.To.L(), n)
		withKernels(false, func() { c.Step2(ref, y) })
		for j := range vec {
			for k := range vec[j] {
				if vec[j][k] != ref[j][k] {
					t.Fatalf("limb %d coeff %d (n=%d): AVX-512 %d, Go %d", j, k, n, vec[j][k], ref[j][k])
				}
			}
		}
	})
}

// TestMulAddAVX512VsGo checks both multiply-accumulate kernels against
// the pure-Go loops, including sums over the whole 64-bit range (x = 0
// leaves acc itself to reduce) and lengths with a scalar tail.
func TestMulAddAVX512VsGo(t *testing.T) {
	if !simd.AVX512 {
		t.Skip("no AVX-512: assembly twins not exercised")
	}
	rng := rand.New(rand.NewSource(90))
	for _, bits := range []uint{28, 29, 31, 32} {
		from, _ := widthBases(t, bits, 1, 1)
		m := from.Moduli[0]
		for _, n := range []int{8, 13, 64, 1000} {
			acc := make([]uint64, n)
			x := make([]uint64, n)
			w := make([]uint64, n)
			for k := range acc {
				acc[k] = rng.Uint64() >> 2
				x[k] = rng.Uint64() % m.Q
				w[k] = rng.Uint64() % m.Q
			}
			acc[0], x[0] = math.MaxUint64, 0
			acc[1], x[1] = 0, 0
			acc[2], x[2], w[2] = 0, m.Q-1, m.Q-1
			for _, reduce := range []bool{false, true} {
				vec := append([]uint64(nil), acc...)
				ref := append([]uint64(nil), acc...)
				run := MulAddLazy
				if reduce {
					run = MulAddReduce
				}
				run(m, vec, x, w)
				withKernels(false, func() { run(m, ref, x, w) })
				for k := range vec {
					if vec[k] != ref[k] {
						t.Fatalf("%d-bit n=%d reduce=%v: coeff %d AVX-512 %d, Go %d", bits, n, reduce, k, vec[k], ref[k])
					}
				}
			}
		}
	}
}
