package rns

import (
	"math"
	"math/rand"
	"testing"

	"cross/internal/modarith"
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

// mulAddForms are the multiply-accumulate kernels, each called with
// its multiplier in 64-bit words: the 32-bit forms get them narrowed,
// as switching keys store them.
var mulAddForms = []struct {
	name string
	run  func(m *modarith.Modulus, acc, x, w []uint64)
}{
	{"lazy", MulAddLazy},
	{"reduce", MulAddReduce},
	{"lazy32", func(m *modarith.Modulus, acc, x, w []uint64) { MulAddLazy32(m, acc, x, narrowWords(w)) }},
	{"reduce32", func(m *modarith.Modulus, acc, x, w []uint64) { MulAddReduce32(m, acc, x, narrowWords(w)) }},
}

// narrowWords returns w in 32-bit words; every word must fit.
func narrowWords(w []uint64) []uint32 {
	out := make([]uint32, len(w))
	for k, v := range w {
		out[k] = uint32(v)
	}
	return out
}

// mulAddVsGo runs one kernel on acc through AVX-512 and through the
// pure-Go loop and returns the first coefficient where they differ, or
// -1.
func mulAddVsGo(run func(*modarith.Modulus, []uint64, []uint64, []uint64), m *modarith.Modulus, acc, x, w []uint64) (k int, vec, ref uint64) {
	v := append([]uint64(nil), acc...)
	r := append([]uint64(nil), acc...)
	run(m, v, x, w)
	withKernels(false, func() { run(m, r, x, w) })
	for k := range v {
		if v[k] != r[k] {
			return k, v[k], r[k]
		}
	}
	return -1, 0, 0
}

// mulAddModuli are one prime each of 28, 29, 31 and 32 bits, the widths
// the 32-bit lanes take.
func mulAddModuli(tb testing.TB) []*modarith.Modulus {
	var ms []*modarith.Modulus
	for _, bits := range []uint{28, 29, 31, 32} {
		from, _ := widthBases(tb, bits, 1, 1)
		ms = append(ms, from.Moduli[0])
	}
	return ms
}

// TestMulAddAVX512VsGo checks every multiply-accumulate kernel, with
// 64- and 32-bit multipliers, against the pure-Go loops, including
// sums over the whole 64-bit range (x = 0 leaves acc itself to reduce)
// and lengths with a scalar tail.
func TestMulAddAVX512VsGo(t *testing.T) {
	if !simd.AVX512 {
		t.Skip("no AVX-512: assembly twins not exercised")
	}
	rng := rand.New(rand.NewSource(90))
	for _, m := range mulAddModuli(t) {
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
			for _, f := range mulAddForms {
				if k, vec, ref := mulAddVsGo(f.run, m, acc, x, w); k >= 0 {
					t.Fatalf("q=%d n=%d %s: coeff %d AVX-512 %d, Go %d", m.Q, n, f.name, k, vec, ref)
				}
			}
		}
	}
}

// FuzzMulAddAVX512VsGo runs each multiply-accumulate kernel, 64×64 and
// 64×32, lazy and reducing, through AVX-512 and through the pure-Go
// loop and requires equal outputs. fill 0 draws random residues, fill 1
// sets every x, w and acc to q − 1, and fill 2 sets acc to 2^64 − 1 with
// x = 0; n covers the 8-wide loop and every scalar tail.
func FuzzMulAddAVX512VsGo(f *testing.F) {
	if !simd.AVX512 {
		f.Skip("no AVX-512: assembly twins not exercised")
	}
	ms := mulAddModuli(f)
	for form := range mulAddForms {
		f.Add(uint8(form), uint8(0), int64(form), uint16(64), uint8(0))
		f.Add(uint8(form), uint8(3), int64(form+4), uint16(71), uint8(1))
		f.Add(uint8(form), uint8(1), int64(form+8), uint16(5), uint8(2))
	}
	f.Fuzz(func(t *testing.T, form, midx uint8, seed int64, nRaw uint16, fill uint8) {
		fm := mulAddForms[int(form)%len(mulAddForms)]
		m := ms[int(midx)%len(ms)]
		n := int(nRaw)%1100 + 1
		rng := rand.New(rand.NewSource(seed))
		acc := make([]uint64, n)
		x := make([]uint64, n)
		w := make([]uint64, n)
		for k := range acc {
			switch fill % 3 {
			case 0:
				acc[k], x[k], w[k] = rng.Uint64(), rng.Uint64()%m.Q, rng.Uint64()%m.Q
			case 1:
				acc[k], x[k], w[k] = m.Q-1, m.Q-1, m.Q-1
			default:
				acc[k], x[k], w[k] = math.MaxUint64, 0, rng.Uint64()%m.Q
			}
		}
		if k, vec, ref := mulAddVsGo(fm.run, m, acc, x, w); k >= 0 {
			t.Fatalf("q=%d n=%d %s fill %d: coeff %d AVX-512 %d, Go %d", m.Q, n, fm.name, fill%3, k, vec, ref)
		}
	})
}
