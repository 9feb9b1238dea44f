package rns

import (
	"math/rand"
	"testing"
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
