package ckks

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

	"cross/internal/ring"
)

// Encoder maps vectors of N/2 complex slots to ring plaintexts through
// the CKKS canonical embedding (§II-A1): slot j is the evaluation of the
// message polynomial at ζ^(5^j) with ζ = e^(iπ/N), computed with the
// "special FFT" over the 5-generated rotation group so that slot
// rotations correspond to Galois automorphisms X ↦ X^(5^k).
//
// Both directions run in machine words, as in the full-RNS CKKS of
// Cheon et al. (SAC 2018): Encode embeds each rounded coefficient into
// the limbs with one-word reductions, and Decode reconstructs the
// centred coefficients with Garner's mixed-radix CRT. math/big serves
// only coefficients of magnitude 2^63 or more (Encode) or 2^64 or more
// (Decode), and its results are bit-identical to the word paths'.
type Encoder struct {
	p *Parameters

	n        int          // slot count N/2
	m        int          // 2N
	rotGroup []int        // 5^j mod 2N
	ksiPows  []complex128 // e^(2πi k / 2N)

	// scratch holds Encode's and Decode's throwaway buffers, so each
	// returns its output as its only allocation; one set per concurrent
	// call keeps an Encoder safe for concurrent use.
	scratch ring.FreeList[*encoderScratch]
}

// encoderScratch holds one call's working buffers.
type encoderScratch struct {
	vals   []complex128 // N/2 slots: Encode's inverse FFT
	ints   []int64      // N rounded coefficients (Encode)
	coeffs []float64    // N centred coefficients (Decode)
	poly   ring.Poly    // Decode's coefficient-domain copy (arena limbs)
}

func (e *Encoder) getScratch() *encoderScratch {
	if sc, ok := e.scratch.Get(); ok {
		return sc
	}
	n := e.p.N()
	return &encoderScratch{vals: make([]complex128, e.n), ints: make([]int64, n), coeffs: make([]float64, n)}
}

// NewEncoder builds the root tables for the parameter set.
func NewEncoder(p *Parameters) *Encoder {
	n := p.Slots()
	m := p.N() * 2
	e := &Encoder{p: p, n: n, m: m,
		rotGroup: make([]int, n), ksiPows: make([]complex128, m+1)}
	fivePow := 1
	for j := 0; j < n; j++ {
		e.rotGroup[j] = fivePow
		fivePow = fivePow * 5 % m
	}
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.ksiPows[k] = cmplx.Exp(complex(0, angle))
	}
	return e
}

// bitReverseInPlace permutes vals by bit reversal (length power of two).
func bitReverseInPlace(vals []complex128) {
	n := len(vals)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// fftSpecial evaluates the message at the rotation-group roots
// (decode direction).
func (e *Encoder) fftSpecial(vals []complex128) {
	n := len(vals)
	bitReverseInPlace(vals)
	for length := 2; length <= n; length <<= 1 {
		lenh, lenq := length>>1, length<<2
		gap := e.m / lenq // lenq divides m = 2N: both are powers of two
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] & (lenq - 1)) * gap
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ksiPows[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// fftSpecialInv is the inverse transform (encode direction).
func (e *Encoder) fftSpecialInv(vals []complex128) {
	n := len(vals)
	for length := n; length >= 2; length >>= 1 {
		lenh, lenq := length>>1, length<<2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - e.rotGroup[j]&(lenq-1)) * gap
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.ksiPows[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseInPlace(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// Plaintext is an encoded (unencrypted) message: a ring polynomial in
// the NTT domain with an attached scale.
type Plaintext struct {
	Value *ring.Poly
	Level int
	Scale float64
}

// ErrNonFinite reports a slot value that is NaN or ±Inf, or that
// overflows float64 once scaled, so that it has no integer encoding.
var ErrNonFinite = errors.New("ckks: value is not finite after scaling")

// EncodeAtLevel embeds up to N/2 complex values into a plaintext at the
// given level and scale. Missing slots are zero. Each coefficient is
// rounded half away from zero; one below 2^63 in magnitude embeds into
// the limbs with one-word reductions, and only larger ones go through
// big.Int. A coefficient that is NaN or infinite, from the input or
// from overflow once scaled, returns ErrNonFinite.
func (e *Encoder) EncodeAtLevel(values []complex128, level int, scale float64) (*Plaintext, error) {
	if len(values) > e.n {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), e.n)
	}
	if level < 0 || level > e.p.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range", level)
	}
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	vals, ints := sc.vals, sc.ints
	clear(vals[copy(vals, values):])
	e.fftSpecialInv(vals)

	var span float64 // the largest |x| rounded into ints
	var wide []int   // coefficients of magnitude 2^63 or more
	for k := range ints {
		switch x := e.scaledCoeff(vals, k, scale); {
		case math.Abs(x) < 0x1p63:
			// Exactly bigFromFloat(x): both round half away from zero.
			ints[k] = int64(math.Round(x))
			span = max(span, math.Abs(x))
		case math.IsNaN(x) || math.IsInf(x, 0):
			return nil, fmt.Errorf("%w: coefficient %d is %v", ErrNonFinite, k, x)
		default:
			ints[k] = 0 // set from big.Int below
			wide = append(wide, k)
		}
	}
	pt := &Plaintext{Value: ring.NewPoly(level+1, e.p.N()), Level: level, Scale: scale}
	rq := e.p.RingQP
	bound := uint64(math.Round(span))
	for i := 0; i <= level; i++ {
		rq.Moduli[i].VecReduceSigned(pt.Value.Coeffs[i], ints, bound)
	}
	for _, k := range wide {
		e.setBigCoeff(pt.Value, k, bigFromFloat(e.scaledCoeff(vals, k, scale)), level)
	}
	rq.NTT(pt.Value)
	return pt, nil
}

// scaledCoeff returns coefficient k of the message polynomial before
// rounding: coefficient j < N/2 carries Re(vals[j])·scale and
// coefficient j + N/2 carries Im(vals[j])·scale.
func (e *Encoder) scaledCoeff(vals []complex128, k int, scale float64) float64 {
	if k < e.n {
		return real(vals[k]) * scale
	}
	return imag(vals[k-e.n]) * scale
}

// Encode embeds values at the maximum level and default scale.
func (e *Encoder) Encode(values []complex128) (*Plaintext, error) {
	return e.EncodeAtLevel(values, e.p.MaxLevel(), e.p.Scale)
}

// Decode recovers the complex slots from a plaintext.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	rq, poly := e.p.RingQP, &sc.poly
	rq.BorrowPoly(poly, pt.Level+1)
	defer rq.ReturnPoly(poly)
	for i, limb := range poly.Coeffs {
		copy(limb, pt.Value.Coeffs[i])
	}
	rq.INTT(poly)
	coeffs := sc.coeffs
	e.p.decodeBasis(pt.Level).DecodeCenteredFloat(coeffs, poly.Coeffs)

	vals := make([]complex128, e.n)
	for j := range vals {
		vals[j] = complex(coeffs[j]/pt.Scale, coeffs[j+e.n]/pt.Scale)
	}
	e.fftSpecial(vals)
	return vals
}

// setBigCoeff embeds the signed big integer c as coefficient k of the
// RNS limbs [0, level].
func (e *Encoder) setBigCoeff(p *ring.Poly, k int, c *big.Int, level int) {
	r, q := new(big.Int), new(big.Int)
	for i := 0; i <= level; i++ {
		// Go's big.Int Mod is Euclidean: the result is ≥ 0.
		p.Coeffs[i][k] = r.Mod(c, q.SetUint64(e.p.RingQP.Moduli[i].Q)).Uint64()
	}
}

// bigFromFloat rounds a finite float64 to the nearest big integer,
// halves away from zero, exactly for magnitudes beyond 2^63.
func bigFromFloat(f float64) *big.Int {
	bf := new(big.Float).SetFloat64(f)
	i, _ := bf.Int(nil)
	// big.Float.Int truncates; adjust for rounding.
	frac := new(big.Float).Sub(bf, new(big.Float).SetInt(i))
	fr, _ := frac.Float64()
	if fr >= 0.5 {
		i.Add(i, big.NewInt(1))
	} else if fr <= -0.5 {
		i.Sub(i, big.NewInt(1))
	}
	return i
}
