package modarith

import (
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

// FuzzVecAVX512VsGo runs every element-wise kernel with an AVX-512 twin
// through the assembly and through the pure-Go loop and requires equal
// outputs. The primes span 28 to 32 bits, and each kernel is checked
// only where its bound admits the prime (q < 2^31 for subtract-and-scale,
// q < 2^32 for the rest); lengths reach every 8-lane tail, and the fill
// flag sets all inputs to 0 or to q − 1. A prime above each bound must
// take the pure-Go path.
func FuzzVecAVX512VsGo(f *testing.F) {
	if !simd.AVX512 {
		f.Skip("no AVX-512: assembly twins not exercised")
	}
	var moduli []*Modulus
	for _, bits := range []uint{28, 29, 30, 31, 32} {
		primes, err := GenerateNTTPrimes(bits, 1<<10, 2)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range primes {
			moduli = append(moduli, MustModulus(q))
		}
	}
	wide, err := GenerateNTTPrimes(33, 1<<10, 1)
	if err != nil {
		f.Fatal(err)
	}
	if m := MustModulus(wide[0]); m.vectorWord() {
		f.Fatalf("q=%d ≥ 2^32 takes the one-word kernels", m.Q)
	}
	if m := moduli[len(moduli)-1]; m.Q < 1<<31 || m.vectorSubScale() {
		f.Fatalf("q=%d ≥ 2^31 takes the subtract-and-scale kernel", m.Q)
	}
	f.Add(uint8(0), int64(1), uint16(64), uint8(0))
	f.Add(uint8(3), int64(2), uint16(71), uint8(1))
	f.Add(uint8(5), int64(-3), uint16(7), uint8(2))
	f.Add(uint8(8), int64(4), uint16(1023), uint8(0))
	f.Add(uint8(9), int64(5), uint16(17), uint8(2))
	f.Add(uint8(1), int64(6), uint16(9), uint8(0))
	f.Fuzz(func(t *testing.T, midx uint8, seed int64, nRaw uint16, fill uint8) {
		m := moduli[int(midx)%len(moduli)]
		n := int(nRaw)%1100 + 1
		rng := rand.New(rand.NewSource(seed))
		vec := func() []uint64 {
			v := make([]uint64, n)
			for k := range v {
				switch fill % 3 {
				case 0:
					v[k] = rng.Uint64() % m.Q
				case 2:
					v[k] = m.Q - 1
				}
			}
			return v
		}
		a, b := vec(), vec()
		w := rng.Uint64() % m.Q
		if fill%3 == 2 {
			w = m.Q - 1
		}
		ws := m.ShoupPrecompute(w)
		// The centred lift's top prime p is drawn from the list; the
		// fixed inputs are the ends of [0, p), the sign change at ⌊p/2⌋,
		// and p − q, a negated lane that reduces to 0 when p > 2q.
		p := moduli[rng.Intn(len(moduli))].Q
		top := make([]uint64, n)
		for k := range top {
			top[k] = rng.Uint64() % p
		}
		copy(top, []uint64{0, p >> 1, p>>1 + 1, p - 1})
		if p > m.Q {
			top[n-1] = p - m.Q
		}
		kernels := []struct {
			name string
			on   bool
			run  func(dst []uint64)
		}{
			{"VecAddMod", true, func(dst []uint64) { m.VecAddMod(dst, a, b) }},
			{"VecSubMod", true, func(dst []uint64) { m.VecSubMod(dst, a, b) }},
			{"VecMulMod", m.vectorWord(), func(dst []uint64) { m.VecMulMod(dst, a, b, Barrett) }},
			{"VecMulAddMod", m.vectorWord(), func(dst []uint64) { copy(dst, b); m.VecMulAddMod(dst, a, b) }},
			{"VecScalarMulModShoup", m.vectorWord(), func(dst []uint64) { m.VecScalarMulModShoup(dst, a, w, ws) }},
			{"VecSubScalarMulModShoup", m.vectorSubScale(), func(dst []uint64) { m.VecSubScalarMulModShoup(dst, a, b, w, ws) }},
			{"VecReduceCentered", m.vectorWord(), func(dst []uint64) { m.VecReduceCentered(dst, top, p) }},
		}
		for _, k := range kernels {
			if !k.on {
				continue
			}
			got := make([]uint64, n)
			k.run(got)
			want := make([]uint64, n)
			withKernels(false, func() { k.run(want) })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s q=%d n=%d: [%d] AVX-512 %d, Go %d", k.name, m.Q, n, i, got[i], want[i])
				}
			}
		}
	})
}
