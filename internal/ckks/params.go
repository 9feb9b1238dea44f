// Package ckks implements the leveled full-RNS CKKS scheme [15], [14]
// that every workload in the paper runs on: canonical-embedding
// encoding, RLWE encryption, and the evaluator whose operators
// (HE-Add, HE-Mult, Rescale, Rotate) the paper benchmarks in Tab. VIII.
// Key switching is the hybrid (dnum-digit) variant [37] the paper's
// configurations assume.
//
// This package is the functional (bit-exact, CPU) execution path; the
// internal/cross package independently lowers the same operator
// schedules onto the TPU simulator for latency. Implementations are
// verified against each other: cross's kernel counts are asserted to
// match the kernel invocations this package actually performs.
package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sync"

	"cross/internal/modarith"
	"cross/internal/ring"
	"cross/internal/rns"
)

// Parameters fixes a CKKS instantiation: ring degree 2^LogN, a chain of
// L ciphertext primes of LogScale bits (the paper's log₂q = 28), and
// Alpha = ⌈L/Dnum⌉ special primes for hybrid key switching.
type Parameters struct {
	LogN     int
	LogScale uint
	L        int // ciphertext-modulus limbs
	Dnum     int
	Alpha    int // special (auxiliary) limbs

	// Scale is the default encoding scale (2^LogScale).
	Scale float64

	// RingQP spans all L+Alpha primes: limbs [0, L) are the ciphertext
	// chain Q, limbs [L, L+Alpha) the special modulus P. Its parallelism
	// (GOMAXPROCS by default) sets the evaluator's limb workers.
	RingQP *ring.Ring

	QPrimes []uint64
	PPrimes []uint64

	bigP     *big.Int
	pModQ    []uint64 // P mod q_i, the key-switch key scaling factor
	pInvModQ []uint64 // P⁻¹ mod q_i, the ModDown scaling factor
	// lazyKeyIP is set when max(dnum, 2)·(q_max−1)² < 2^64 over Q ∪ P,
	// so the key-switch inner product can sum raw products across all
	// digits and reduce once (see innerProductLimb), and the tensor
	// product can sum its two cross terms the same way (see tensorLimb).
	lazyKeyIP bool

	// ksConv holds the key switch's converters per level, built on
	// first use (keySwitchConverters).
	ksConv []levelConverters

	// cacheMu guards the basis cache, which encoders sharing these
	// parameters fill on first use.
	cacheMu    sync.Mutex
	basisCache map[string]*rns.Basis
}

// NewParameters builds a parameter set. logN ≥ 3; l ≥ 1; 1 ≤ dnum ≤ l.
func NewParameters(logN int, logScale uint, l, dnum int) (*Parameters, error) {
	if logN < 3 || logN > 17 {
		return nil, fmt.Errorf("ckks: logN %d outside [3, 17]", logN)
	}
	if l < 1 {
		return nil, fmt.Errorf("ckks: need at least one ciphertext prime")
	}
	if dnum < 1 || dnum > l {
		return nil, fmt.Errorf("ckks: dnum %d outside [1, %d]", dnum, l)
	}
	if logScale < 20 || logScale > 40 {
		return nil, fmt.Errorf("ckks: logScale %d outside [20, 40]", logScale)
	}
	n := 1 << logN
	alpha := (l + dnum - 1) / dnum
	qPrimes, err := modarith.GenerateNTTPrimes(logScale, uint64(n), l)
	if err != nil {
		return nil, err
	}
	// Special primes one bit larger so P exceeds every digit's modulus,
	// keeping the ModUp error scaled down by ≥ 1 (standard practice).
	pPrimes, err := modarith.GenerateNTTPrimesAvoiding(logScale+1, uint64(n), alpha, qPrimes)
	if err != nil {
		return nil, err
	}
	all := append(append([]uint64{}, qPrimes...), pPrimes...)
	rq, err := ring.NewRing(n, all)
	if err != nil {
		return nil, err
	}
	// Every limb loop of the evaluator (and the ring's NTT/INTT) spreads
	// over one worker per usable processor; results do not depend on it.
	rq = rq.WithParallelism(ring.DefaultParallelism())
	p := &Parameters{
		LogN:       logN,
		LogScale:   logScale,
		L:          l,
		Dnum:       dnum,
		Alpha:      alpha,
		Scale:      math.Exp2(float64(logScale)),
		RingQP:     rq,
		QPrimes:    qPrimes,
		PPrimes:    pPrimes,
		lazyKeyIP:  digitSumFitsWord(all, max(dnum, 2)),
		ksConv:     make([]levelConverters, l),
		basisCache: make(map[string]*rns.Basis),
	}
	p.bigP = big.NewInt(1)
	for _, pp := range pPrimes {
		p.bigP.Mul(p.bigP, new(big.Int).SetUint64(pp))
	}
	p.pModQ = make([]uint64, l)
	p.pInvModQ = make([]uint64, l)
	for i, q := range qPrimes {
		m := rq.Moduli[i]
		pm := new(big.Int).Mod(p.bigP, new(big.Int).SetUint64(q)).Uint64()
		p.pModQ[i] = pm
		p.pInvModQ[i] = m.InvMod(pm)
	}
	return p, nil
}

// digitSumFitsWord reports whether dnum products of residues, summed,
// stay below 2^64 for every prime: dnum·(q_max−1)² < 2^64.
func digitSumFitsWord(primes []uint64, dnum int) bool {
	var qMax uint64
	for _, q := range primes {
		qMax = max(qMax, q)
	}
	hi, sq := bits.Mul64(qMax-1, qMax-1)
	if hi != 0 {
		return false
	}
	hi, _ = bits.Mul64(sq, uint64(dnum))
	return hi == 0
}

// MustParameters is NewParameters that panics on error.
func MustParameters(logN int, logScale uint, l, dnum int) *Parameters {
	p, err := NewParameters(logN, logScale, l, dnum)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << p.LogN }

// Slots returns the number of complex plaintext slots (N/2).
func (p *Parameters) Slots() int { return p.N() / 2 }

// MaxLevel returns the highest ciphertext level (L−1).
func (p *Parameters) MaxLevel() int { return p.L - 1 }

// PModQ returns P mod q_i.
func (p *Parameters) PModQ(i int) uint64 { return p.pModQ[i] }

// PInvModQ returns P⁻¹ mod q_i.
func (p *Parameters) PInvModQ(i int) uint64 { return p.pInvModQ[i] }

// digitRange returns the Q-limb interval [lo, hi) of digit j at level l.
// Digits are α-blocks of the full chain; the last block at a level may
// be partial. ok is false when the digit is empty at this level.
func (p *Parameters) digitRange(j, level int) (lo, hi int, ok bool) {
	lo = j * p.Alpha
	hi = lo + p.Alpha
	if hi > level+1 {
		hi = level + 1
	}
	return lo, hi, lo <= level
}

// NumDigits returns the number of non-empty key-switch digits at level.
func (p *Parameters) NumDigits(level int) int {
	return (level + p.Alpha) / p.Alpha
}

// basisFor returns (and caches) the RNS basis over a prime subset given
// by ring limb indices. It is safe for concurrent use.
func (p *Parameters) basisFor(idx []int) *rns.Basis {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	key := fmt.Sprint(idx)
	if b, ok := p.basisCache[key]; ok {
		return b
	}
	primes := make([]uint64, len(idx))
	for i, id := range idx {
		primes[i] = p.RingQP.Moduli[id].Q
	}
	b := rns.MustBasis(primes)
	p.basisCache[key] = b
	return b
}

// levelConverters are the key switch's BConv converters at one level:
// ModUp's per digit (the digit's limbs → the rest of Q_level ∪ P) and
// ModDown's (P → Q_level).
type levelConverters struct {
	once sync.Once
	up   []*rns.Converter
	down *rns.Converter
}

// keySwitchConverters returns the converters at level, built on first
// use. It is safe for concurrent use.
func (p *Parameters) keySwitchConverters(level int) *levelConverters {
	c := &p.ksConv[level]
	c.once.Do(func() {
		q := p.QPrimes[:level+1]
		for j := 0; j < p.NumDigits(level); j++ {
			lo, hi, _ := p.digitRange(j, level)
			rest := append(append(append([]uint64{}, q[:lo]...), q[hi:]...), p.PPrimes...)
			c.up = append(c.up, mustConverter(q[lo:hi], rest))
		}
		c.down = mustConverter(p.PPrimes, q)
	})
	return c
}

func mustConverter(from, to []uint64) *rns.Converter {
	c, err := rns.NewConverter(rns.MustBasis(from), rns.MustBasis(to))
	if err != nil {
		panic(fmt.Sprintf("ckks: converter construction: %v", err))
	}
	return c
}

// qLimbs returns the limb indices [0, level].
func qLimbs(level int) []int {
	out := make([]int, level+1)
	for i := range out {
		out[i] = i
	}
	return out
}
