package rns

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"cross/internal/modarith"
)

// FuzzStep2OneWordVsWide runs Step2 on the same input through the
// one-word sum and through the 128-bit accumulator and requires equal
// outputs. The bases are the widest the one-word bound admits (seven
// 31-bit source primes) and the paper's 28-bit primes; the top flag
// sets every input residue to q_i − 1, the largest sum the bound
// allows.
func FuzzStep2OneWordVsWide(f *testing.F) {
	var convs []*Converter
	for _, b := range []struct {
		bits  uint
		l, lp int
	}{{31, 7, 3}, {28, 5, 8}, {28, 1, 1}} {
		from, to := widthBases(f, b.bits, b.l, b.lp)
		c, err := NewConverter(from, to)
		if err != nil {
			f.Fatal(err)
		}
		if !c.oneWord {
			f.Fatalf("%d-bit L=%d: one-word Step2 not selected", b.bits, b.l)
		}
		convs = append(convs, c)
	}
	f.Add(uint8(0), int64(1), uint8(7), false)
	f.Add(uint8(0), int64(2), uint8(64), true)
	f.Add(uint8(1), int64(-3), uint8(0), false)
	f.Add(uint8(2), int64(4), uint8(33), true)
	f.Fuzz(func(t *testing.T, cidx uint8, seed int64, nRaw uint8, top bool) {
		c := convs[int(cidx)%len(convs)]
		n := int(nRaw)%97 + 1 // cover full tiles and every tail
		rng := rand.New(rand.NewSource(seed))
		y := AllocLimbs(c.From.L(), n)
		for i, m := range c.From.Moduli {
			for k := range y[i] {
				if top {
					y[i][k] = m.Q - 1
				} else {
					y[i][k] = rng.Uint64() % m.Q
				}
			}
		}
		word := AllocLimbs(c.To.L(), n)
		c.Step2(word, y)
		wide := AllocLimbs(c.To.L(), n)
		c.oneWord = false
		c.Step2(wide, y)
		c.oneWord = true
		for j := range word {
			for k := range word[j] {
				if word[j][k] != wide[j][k] {
					t.Fatalf("limb %d coeff %d (n=%d): one-word %d, 128-bit %d", j, k, n, word[j][k], wide[j][k])
				}
			}
		}
	})
}

// FuzzDecodeCenteredWord compares DecodeCenteredFloat with the big.Int
// oracle, DecodeCentered rounded to float64, bit for bit. The bases
// hold 1 to 16 primes of 28, 40 or 60 bits, or of alternating 28 and 60
// bits; the first coefficients are the values where the word path
// changes course (0, ±1, ±(2^63 − 1), ±2^63, ±(2^64 − 1), ±2^64,
// ⌊Q/2⌋ and its neighbours, Q − 1), the rest random residues.
func FuzzDecodeCenteredWord(f *testing.F) {
	primes := map[uint][]uint64{}
	for _, bits := range []uint{28, 40, 60} {
		ps, err := modarith.GenerateNTTPrimes(bits, 1<<10, 16)
		if err != nil {
			f.Fatal(err)
		}
		primes[bits] = ps
	}
	var bases [4][]*Basis
	for l := 1; l <= 16; l++ {
		var mixed []uint64
		for i := range l {
			mixed = append(mixed, primes[[]uint{28, 60}[i%2]][i])
		}
		for w, ps := range [][]uint64{primes[28][:l], primes[40][:l], primes[60][:l], mixed} {
			bases[w] = append(bases[w], MustBasis(ps))
		}
	}
	f.Add(uint8(0), uint8(0), int64(1), uint8(20))
	f.Add(uint8(0), uint8(7), int64(2), uint8(40))
	f.Add(uint8(1), uint8(2), int64(3), uint8(17))
	f.Add(uint8(2), uint8(1), int64(4), uint8(33))
	f.Add(uint8(3), uint8(15), int64(5), uint8(64))
	f.Add(uint8(2), uint8(15), int64(6), uint8(9))
	f.Fuzz(func(t *testing.T, width, limbs uint8, seed int64, nRaw uint8) {
		b := bases[int(width)%len(bases)][int(limbs)%16]
		n := int(nRaw)%80 + 1
		rng := rand.New(rand.NewSource(seed))
		half := new(big.Int).Rsh(b.Q, 1)
		var special []*big.Int
		for _, e := range []uint{0, 63, 64} {
			p := new(big.Int).Lsh(big.NewInt(1), e)
			for _, d := range []int64{-1, 0, 1} {
				v := new(big.Int).Add(p, big.NewInt(d))
				special = append(special, v, new(big.Int).Neg(v))
			}
		}
		for _, d := range []int64{-1, 0, 1} {
			special = append(special, new(big.Int).Add(half, big.NewInt(d)))
		}
		special = append(special, new(big.Int).Sub(b.Q, big.NewInt(1)), new(big.Int))
		res := AllocLimbs(b.L(), n)
		for k := 0; k < n; k++ {
			var r []uint64
			if k < len(special) {
				r = b.Encode(special[k])
			} else {
				r = b.Encode(new(big.Int).Rand(rng, b.Q))
			}
			for i := range res {
				res[i][k] = r[i]
			}
		}
		want := make([]float64, n)
		col := make([]uint64, b.L())
		for k := range want {
			for i := range col {
				col[i] = res[i][k]
			}
			want[k], _ = new(big.Float).SetInt(b.DecodeCentered(col)).Float64()
		}
		got := make([]float64, n)
		b.DecodeCenteredFloat(got, res)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("L=%d primes %v coeff %d: word %v, big.Int %v", b.L(), b.Primes(), k, got[k], want[k])
			}
		}
	})
}
