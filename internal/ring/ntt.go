package ring

import (
	"fmt"
	"math/bits"

	"cross/internal/modarith"
	"cross/internal/simd"
)

// nttTable holds the per-modulus twiddle factors for the radix-2
// Cooley–Tukey NTT (Alg. 3). Powers of ψ (primitive 2N-th root) are
// stored in bit-reversed order with Shoup quotients, the layout used by
// the merged negacyclic butterfly (Longa–Naehrig).
type nttTable struct {
	n       int
	psi     uint64 // primitive 2N-th root of unity
	psiInv  uint64 // ψ⁻¹
	omega   uint64 // ψ², primitive N-th root
	nInv    uint64 // N⁻¹ mod q
	nInvSho uint64
	// Merged last-stage INTT twiddle ψ^-brv(1)·N⁻¹: folding the final
	// N⁻¹ scaling into the last Gentleman–Sande stage removes the whole
	// normalization pass (Longa–Naehrig merged butterfly).
	nInvPsi    uint64
	nInvPsiSho uint64

	psiRev       []uint64 // ψ^brv(i), i ∈ [0, N)
	psiRevSho    []uint64
	psiInvRev    []uint64 // ψ^-brv(i)
	psiInvRevSho []uint64
}

func newNTTTable(m *modarith.Modulus, n int) (*nttTable, error) {
	psi, err := m.PrimitiveRootOfUnity(uint64(2 * n))
	if err != nil {
		return nil, fmt.Errorf("ring: modulus %d: %w", m.Q, err)
	}
	t := &nttTable{
		n:            n,
		psi:          psi,
		psiInv:       m.InvMod(psi),
		omega:        m.MulMod(psi, psi),
		nInv:         m.InvMod(uint64(n)),
		psiRev:       make([]uint64, n),
		psiRevSho:    make([]uint64, n),
		psiInvRev:    make([]uint64, n),
		psiInvRevSho: make([]uint64, n),
	}
	t.nInvSho = m.ShoupPrecompute(t.nInv)
	logN := uint(bits.Len(uint(n)) - 1)
	fwd, inv := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		r := int(bitReverse(uint64(i), logN))
		t.psiRev[r] = fwd
		t.psiInvRev[r] = inv
		fwd = m.MulMod(fwd, psi)
		inv = m.MulMod(inv, t.psiInv)
	}
	for i := 0; i < n; i++ {
		t.psiRevSho[i] = m.ShoupPrecompute(t.psiRev[i])
		t.psiInvRevSho[i] = m.ShoupPrecompute(t.psiInvRev[i])
	}
	t.nInvPsi = m.MulMod(t.psiInvRev[1], t.nInv)
	t.nInvPsiSho = m.ShoupPrecompute(t.nInvPsi)
	return t, nil
}

// vectorNTT reports whether the AVX-512 transforms serve degree n
// modulo q: their last three forward (first three inverse) stages work
// on 16-word groups, so n ≥ 16, and their 32-bit Shoup quotients need
// the lazy bound 4q below 2^32, so q < 2^30. Both give the same fully
// reduced outputs as the pure-Go kernels.
func vectorNTT(n int, q uint64) bool { return simd.AVX512 && n >= 16 && q < 1<<30 }

// bitReverse reverses the low `width` bits of x.
func bitReverse(x uint64, width uint) uint64 {
	return bits.Reverse64(x) >> (64 - width)
}

// BitReverse exposes the bit-reversal helper used throughout the NTT
// algorithm family (MAT builds its offline permutations from it).
func BitReverse(x uint64, width uint) uint64 { return bitReverse(x, width) }

// NTTInPlace performs the in-place forward negacyclic NTT of one limb
// via merged Longa–Naehrig/Harvey butterflies (Alg. 3). Input is in
// natural coefficient order with coefficients in [0, q); output is the
// evaluation vector in bit-reversed order, fully reduced to [0, q):
// out[brv(j)] = Σ_i a_i ψ^{i(2j+1)}.
//
// Reduction is deferred across stages: values stay in [0, 4q) between
// stages and each butterfly corrects its first operand to [0, 2q) only
// when it is read. The final stage folds the closing correction into
// its butterflies, so no separate normalization pass runs. The inner
// loops are 4×-unrolled with hoisted modulus constants. Steady-state
// execution allocates nothing.
func (r *Ring) NTTInPlace(i int, a []uint64) {
	t := r.tables[i]
	m := r.Moduli[i]
	n := r.N
	if len(a) != n {
		panic("ring: NTTInPlace length mismatch")
	}
	q := m.Q
	if vectorNTT(n, q) {
		nttAVX512(a, t.psiRev, t.psiRevSho, q)
		return
	}
	twoQ := q + q

	// Opening pass. For n ≥ 16 the first two stages fuse into one
	// radix-4 sweep: each iteration loads the four strided operands,
	// runs the stage-1 butterflies (inputs < q, no correction) and both
	// stage-2 butterflies in registers, then stores — one load/store
	// pass instead of two. For n == 8 only stage 1 runs here.
	var step, half int
	if n >= 16 {
		q4 := n >> 2
		w1, w1s := t.psiRev[1], t.psiRevSho[1]
		wA, wAs := t.psiRev[2], t.psiRevSho[2]
		wB, wBs := t.psiRev[3], t.psiRevSho[3]
		x0 := a[0:q4:q4]
		x1 := a[q4 : 2*q4 : 2*q4]
		x2 := a[2*q4 : 3*q4 : 3*q4]
		x3 := a[3*q4 : 4*q4 : 4*q4]
		x1 = x1[:len(x0):len(x0)]
		x2 = x2[:len(x0):len(x0)]
		x3 = x3[:len(x0):len(x0)]
		for j := 0; j < len(x0); j++ {
			u0, u1, u2, u3 := x0[j], x1[j], x2[j], x3[j]
			// Stage 1: pairs (u0,u2), (u1,u3), twiddle ψ^brv(1).
			hv0, _ := bits.Mul64(u2, w1s)
			v0 := u2*w1 - hv0*q
			hv1, _ := bits.Mul64(u3, w1s)
			v1 := u3*w1 - hv1*q
			a0 := u0 + v0        // [0, 3q)
			a2 := u0 + twoQ - v0 // (0, 3q)
			a1 := u1 + v1
			a3 := u1 + twoQ - v1
			// Stage 2: block 0 pairs (a0,a1), block 1 pairs (a2,a3).
			if a0 >= twoQ {
				a0 -= twoQ
			}
			hA, _ := bits.Mul64(a1, wAs)
			vA := a1*wA - hA*q
			if a2 >= twoQ {
				a2 -= twoQ
			}
			hB, _ := bits.Mul64(a3, wBs)
			vB := a3*wB - hB*q
			x0[j] = a0 + vA
			x1[j] = a0 + twoQ - vA
			x2[j] = a2 + vB
			x3[j] = a2 + twoQ - vB
		}
		step = 4
		half = n >> 3
	} else {
		// n == 8: plain stage 1 (inputs < q, no correction).
		half = n >> 1
		w, ws := t.psiRev[1], t.psiRevSho[1]
		x := a[:half]
		y := a[half : 2*half]
		y = y[:len(x):len(x)]
		for j := 0; j < len(x); j++ {
			u := x[j]
			hi, _ := bits.Mul64(y[j], ws)
			v := y[j]*w - hi*q
			x[j] = u + v
			y[j] = u + twoQ - v
		}
		step = 2
		half = n >> 2
	}

	// Middle stages with half ≥ 8: generic 4×-unrolled lazy butterflies,
	// outputs in [0, 4q), first operand corrected to [0, 2q) on read.
	for ; half >= 8; step, half = step<<1, half>>1 {
		for blk := 0; blk < step; blk++ {
			w := t.psiRev[step+blk]
			ws := t.psiRevSho[step+blk]
			j1 := 2 * blk * half
			x := a[j1 : j1+half : j1+half]
			y := a[j1+half : j1+2*half : j1+2*half]
			y = y[:len(x):len(x)]
			for j := 0; j <= len(x)-4; j += 4 {
				u0, u1, u2, u3 := x[j], x[j+1], x[j+2], x[j+3]
				y0, y1, y2, y3 := y[j], y[j+1], y[j+2], y[j+3]
				if u0 >= twoQ {
					u0 -= twoQ
				}
				if u1 >= twoQ {
					u1 -= twoQ
				}
				if u2 >= twoQ {
					u2 -= twoQ
				}
				if u3 >= twoQ {
					u3 -= twoQ
				}
				h0, _ := bits.Mul64(y0, ws)
				h1, _ := bits.Mul64(y1, ws)
				h2, _ := bits.Mul64(y2, ws)
				h3, _ := bits.Mul64(y3, ws)
				v0 := y0*w - h0*q
				v1 := y1*w - h1*q
				v2 := y2*w - h2*q
				v3 := y3*w - h3*q
				x[j], x[j+1], x[j+2], x[j+3] = u0+v0, u1+v1, u2+v2, u3+v3
				y[j], y[j+1], y[j+2], y[j+3] = u0+twoQ-v0, u1+twoQ-v1, u2+twoQ-v2, u3+twoQ-v3
			}
		}
	}

	// half == 4 stage: each block is one fully-unrolled 8-word window.
	if half == 4 {
		for blk := 0; blk < step; blk++ {
			w := t.psiRev[step+blk]
			ws := t.psiRevSho[step+blk]
			p := a[blk*8 : blk*8+8 : blk*8+8]
			u0, u1, u2, u3 := p[0], p[1], p[2], p[3]
			y0, y1, y2, y3 := p[4], p[5], p[6], p[7]
			if u0 >= twoQ {
				u0 -= twoQ
			}
			if u1 >= twoQ {
				u1 -= twoQ
			}
			if u2 >= twoQ {
				u2 -= twoQ
			}
			if u3 >= twoQ {
				u3 -= twoQ
			}
			h0, _ := bits.Mul64(y0, ws)
			h1, _ := bits.Mul64(y1, ws)
			h2, _ := bits.Mul64(y2, ws)
			h3, _ := bits.Mul64(y3, ws)
			v0 := y0*w - h0*q
			v1 := y1*w - h1*q
			v2 := y2*w - h2*q
			v3 := y3*w - h3*q
			p[0], p[1], p[2], p[3] = u0+v0, u1+v1, u2+v2, u3+v3
			p[4], p[5], p[6], p[7] = u0+twoQ-v0, u1+twoQ-v1, u2+twoQ-v2, u3+twoQ-v3
		}
		step <<= 1
		half = 2
	}

	// Fused final stages (half == 2, then half == 1): each 4-word window
	// runs both stages in registers — one load/store pass instead of two
	// — and the half-1 butterflies fold the closing correction, so
	// coefficients land in [0, q) with no normalization pass at all.
	w2Row := t.psiRev[step : 2*step]
	w2sRow := t.psiRevSho[step : 2*step]
	w2sRow = w2sRow[:len(w2Row)]
	w1Row := t.psiRev[2*step : 4*step]
	w1sRow := t.psiRevSho[2*step : 4*step]
	for blk := 0; blk < len(w2Row); blk++ {
		w, ws := w2Row[blk], w2sRow[blk]
		p := a[blk*4 : blk*4+4 : blk*4+4]
		u0, u1 := p[0], p[1]
		y0, y1 := p[2], p[3]
		if u0 >= twoQ {
			u0 -= twoQ
		}
		if u1 >= twoQ {
			u1 -= twoQ
		}
		h0, _ := bits.Mul64(y0, ws)
		h1, _ := bits.Mul64(y1, ws)
		v0 := y0*w - h0*q
		v1 := y1*w - h1*q
		x0 := u0 + v0
		x1 := u1 + v1
		z0 := u0 + twoQ - v0
		z1 := u1 + twoQ - v1

		wA, wAs := w1Row[2*blk], w1sRow[2*blk]
		wB, wBs := w1Row[2*blk+1], w1sRow[2*blk+1]
		if x0 >= twoQ {
			x0 -= twoQ
		}
		hA, _ := bits.Mul64(x1, wAs)
		vA := x1*wA - hA*q
		t0 := x0 + vA
		if t0 >= twoQ {
			t0 -= twoQ
		}
		if t0 >= q {
			t0 -= q
		}
		t1 := x0 + twoQ - vA
		if t1 >= twoQ {
			t1 -= twoQ
		}
		if t1 >= q {
			t1 -= q
		}
		if z0 >= twoQ {
			z0 -= twoQ
		}
		hB, _ := bits.Mul64(z1, wBs)
		vB := z1*wB - hB*q
		t2 := z0 + vB
		if t2 >= twoQ {
			t2 -= twoQ
		}
		if t2 >= q {
			t2 -= q
		}
		t3 := z0 + twoQ - vB
		if t3 >= twoQ {
			t3 -= twoQ
		}
		if t3 >= q {
			t3 -= q
		}
		p[0], p[1], p[2], p[3] = t0, t1, t2, t3
	}
}

// INTTInPlace performs the in-place inverse NTT of one limb via merged
// Gentleman–Sande butterflies: input in bit-reversed evaluation order
// (the output order of NTTInPlace), output in natural coefficient
// order scaled by N⁻¹, fully reduced to [0, q).
//
// Values stay lazily bounded by 2q between stages; the final stage
// folds both the N⁻¹ scaling (via the merged twiddle ψ^-brv(1)·N⁻¹)
// and the closing correction into its butterflies, eliminating the
// separate normalization pass entirely. Steady-state execution
// allocates nothing.
func (r *Ring) INTTInPlace(i int, a []uint64) {
	t := r.tables[i]
	m := r.Moduli[i]
	n := r.N
	if len(a) != n {
		panic("ring: INTTInPlace length mismatch")
	}
	q := m.Q
	if vectorNTT(n, q) {
		inttAVX512(a, t.psiInvRev, t.psiInvRevSho, q, t.nInv, t.nInvSho, t.nInvPsi, t.nInvPsiSho)
		return
	}
	twoQ := q + q

	// Fused opening stages (half == 1, then half == 2): each 4-word
	// window runs its two half-1 GS butterflies and the half-2 pair in
	// registers — one load/store pass instead of two.
	step := n >> 1
	w1Row := t.psiInvRev[step : 2*step]
	w1sRow := t.psiInvRevSho[step : 2*step]
	step >>= 1
	w2Row := t.psiInvRev[step : 2*step]
	w2sRow := t.psiInvRevSho[step : 2*step]
	w2sRow = w2sRow[:len(w2Row)]
	for blk := 0; blk < len(w2Row); blk++ {
		p := a[blk*4 : blk*4+4 : blk*4+4]
		// half == 1 butterflies on (p0,p1) and (p2,p3).
		wA, wAs := w1Row[2*blk], w1sRow[2*blk]
		wB, wBs := w1Row[2*blk+1], w1sRow[2*blk+1]
		u0, v0 := p[0], p[1]
		sA := u0 + v0
		if sA >= twoQ {
			sA -= twoQ
		}
		dA := u0 + twoQ - v0
		hA, _ := bits.Mul64(dA, wAs)
		rA := dA*wA - hA*q
		u1, v1 := p[2], p[3]
		sB := u1 + v1
		if sB >= twoQ {
			sB -= twoQ
		}
		dB := u1 + twoQ - v1
		hB, _ := bits.Mul64(dB, wBs)
		rB := dB*wB - hB*q
		// half == 2 butterflies on (sA,sB) and (rA,rB).
		w, ws := w2Row[blk], w2sRow[blk]
		s0 := sA + sB
		if s0 >= twoQ {
			s0 -= twoQ
		}
		d0 := sA + twoQ - sB
		h0, _ := bits.Mul64(d0, ws)
		s1 := rA + rB
		if s1 >= twoQ {
			s1 -= twoQ
		}
		d1 := rA + twoQ - rB
		h1, _ := bits.Mul64(d1, ws)
		p[0], p[1] = s0, s1
		p[2], p[3] = d0*w-h0*q, d1*w-h1*q
	}
	step >>= 1

	// half == 4 stage: one 8-word window per block. Runs only when this
	// stage is not already claimed by the fused closing pass (n ≥ 32).
	if step >= 4 {
		for blk := 0; blk < step; blk++ {
			w := t.psiInvRev[step+blk]
			ws := t.psiInvRevSho[step+blk]
			p := a[blk*8 : blk*8+8 : blk*8+8]
			u0, u1, u2, u3 := p[0], p[1], p[2], p[3]
			v0, v1, v2, v3 := p[4], p[5], p[6], p[7]
			s0, s1, s2, s3 := u0+v0, u1+v1, u2+v2, u3+v3
			if s0 >= twoQ {
				s0 -= twoQ
			}
			if s1 >= twoQ {
				s1 -= twoQ
			}
			if s2 >= twoQ {
				s2 -= twoQ
			}
			if s3 >= twoQ {
				s3 -= twoQ
			}
			d0 := u0 + twoQ - v0
			d1 := u1 + twoQ - v1
			d2 := u2 + twoQ - v2
			d3 := u3 + twoQ - v3
			h0, _ := bits.Mul64(d0, ws)
			h1, _ := bits.Mul64(d1, ws)
			h2, _ := bits.Mul64(d2, ws)
			h3, _ := bits.Mul64(d3, ws)
			p[0], p[1], p[2], p[3] = s0, s1, s2, s3
			p[4], p[5], p[6], p[7] = d0*w-h0*q, d1*w-h1*q, d2*w-h2*q, d3*w-h3*q
		}
		step >>= 1
	}

	// Middle stages with half ≥ 8 (step ≥ 4): generic 4×-unrolled lazy
	// GS butterflies. Three stages (half 1, 2, 4) ran above, so the
	// entry half is always 8 (half = n / 2·step throughout); the step 2
	// and step 1 stages belong to the fused closing pass.
	half := 8
	for ; step >= 4; step, half = step>>1, half<<1 {
		for blk := 0; blk < step; blk++ {
			w := t.psiInvRev[step+blk]
			ws := t.psiInvRevSho[step+blk]
			j1 := 2 * blk * half
			x := a[j1 : j1+half : j1+half]
			y := a[j1+half : j1+2*half : j1+2*half]
			y = y[:len(x):len(x)]
			for j := 0; j <= len(x)-4; j += 4 {
				u0, u1, u2, u3 := x[j], x[j+1], x[j+2], x[j+3]
				v0, v1, v2, v3 := y[j], y[j+1], y[j+2], y[j+3]
				s0, s1, s2, s3 := u0+v0, u1+v1, u2+v2, u3+v3
				if s0 >= twoQ {
					s0 -= twoQ
				}
				if s1 >= twoQ {
					s1 -= twoQ
				}
				if s2 >= twoQ {
					s2 -= twoQ
				}
				if s3 >= twoQ {
					s3 -= twoQ
				}
				d0 := u0 + twoQ - v0
				d1 := u1 + twoQ - v1
				d2 := u2 + twoQ - v2
				d3 := u3 + twoQ - v3
				h0, _ := bits.Mul64(d0, ws)
				h1, _ := bits.Mul64(d1, ws)
				h2, _ := bits.Mul64(d2, ws)
				h3, _ := bits.Mul64(d3, ws)
				x[j], x[j+1], x[j+2], x[j+3] = s0, s1, s2, s3
				y[j], y[j+1], y[j+2], y[j+3] = d0*w-h0*q, d1*w-h1*q, d2*w-h2*q, d3*w-h3*q
			}
		}
	}
	// Closing pass: the sum leg of the last stage scales by N⁻¹, the
	// difference leg by the merged twiddle ψ^-brv(1)·N⁻¹, and both legs
	// correct to [0, q) inside the butterfly — no normalization pass.
	// For n ≥ 16 the step-2 stage fuses in as well: each iteration runs
	// both its GS butterflies and both final butterflies in registers
	// on the four strided operands.
	nI, nIs := t.nInv, t.nInvSho
	wn, wns := t.nInvPsi, t.nInvPsiSho
	if n >= 16 {
		q4 := n >> 2
		wA, wAs := t.psiInvRev[2], t.psiInvRevSho[2]
		wB, wBs := t.psiInvRev[3], t.psiInvRevSho[3]
		x0 := a[0:q4:q4]
		x1 := a[q4 : 2*q4 : 2*q4]
		x2 := a[2*q4 : 3*q4 : 3*q4]
		x3 := a[3*q4 : 4*q4 : 4*q4]
		x1 = x1[:len(x0):len(x0)]
		x2 = x2[:len(x0):len(x0)]
		x3 = x3[:len(x0):len(x0)]
		for j := 0; j < len(x0); j++ {
			u0, u1, u2, u3 := x0[j], x1[j], x2[j], x3[j]
			// Step-2 stage: block 0 pairs (u0,u1), block 1 pairs (u2,u3).
			sA := u0 + u1
			if sA >= twoQ {
				sA -= twoQ
			}
			dA := u0 + twoQ - u1
			hA, _ := bits.Mul64(dA, wAs)
			rA := dA*wA - hA*q
			sB := u2 + u3
			if sB >= twoQ {
				sB -= twoQ
			}
			dB := u2 + twoQ - u3
			hB, _ := bits.Mul64(dB, wBs)
			rB := dB*wB - hB*q
			// Final stage: pairs (sA,sB) and (rA,rB), N⁻¹ folded in.
			s := sA + sB
			if s >= twoQ {
				s -= twoQ
			}
			hs, _ := bits.Mul64(s, nIs)
			rs := s*nI - hs*q
			if rs >= q {
				rs -= q
			}
			d := sA + twoQ - sB
			hd, _ := bits.Mul64(d, wns)
			rd := d*wn - hd*q
			if rd >= q {
				rd -= q
			}
			s2 := rA + rB
			if s2 >= twoQ {
				s2 -= twoQ
			}
			hs2, _ := bits.Mul64(s2, nIs)
			rs2 := s2*nI - hs2*q
			if rs2 >= q {
				rs2 -= q
			}
			d2 := rA + twoQ - rB
			hd2, _ := bits.Mul64(d2, wns)
			rd2 := d2*wn - hd2*q
			if rd2 >= q {
				rd2 -= q
			}
			x0[j], x1[j], x2[j], x3[j] = rs, rs2, rd, rd2
		}
		return
	}

	// n == 8: plain merged final stage (step == 1).
	half = n >> 1
	for j := 0; j < half; j++ {
		u, v := a[j], a[j+half]
		s := u + v
		if s >= twoQ {
			s -= twoQ
		}
		hs, _ := bits.Mul64(s, nIs)
		rs := s*nI - hs*q
		if rs >= q {
			rs -= q
		}
		d := u + twoQ - v
		hd, _ := bits.Mul64(d, wns)
		rd := d*wn - hd*q
		if rd >= q {
			rd -= q
		}
		a[j] = rs
		a[j+half] = rd
	}
}

// NTTLimb is the historical name of NTTInPlace, kept for callers of
// the pre-lazy API.
func (r *Ring) NTTLimb(i int, a []uint64) { r.NTTInPlace(i, a) }

// INTTLimb is the historical name of INTTInPlace.
func (r *Ring) INTTLimb(i int, a []uint64) { r.INTTInPlace(i, a) }

// NTTInPlaceStrict is the retained strict-reduction forward transform:
// every butterfly fully reduces both legs to [0, q) before the next
// stage reads them. It is the bit-exactness oracle the lazy
// NTTInPlace is tested and fuzzed against (slower, never used on hot
// paths).
func (r *Ring) NTTInPlaceStrict(i int, a []uint64) {
	t := r.tables[i]
	m := r.Moduli[i]
	n := r.N
	if len(a) != n {
		panic("ring: NTTInPlaceStrict length mismatch")
	}
	half := n
	for step := 1; step < n; step <<= 1 {
		half >>= 1
		for blk := 0; blk < step; blk++ {
			w := t.psiRev[step+blk]
			ws := t.psiRevSho[step+blk]
			j1 := 2 * blk * half
			for j := j1; j < j1+half; j++ {
				u := a[j]
				v := m.ShoupMulFull(a[j+half], w, ws)
				a[j] = m.AddMod(u, v)
				a[j+half] = m.SubMod(u, v)
			}
		}
	}
}

// INTTInPlaceStrict is the retained strict-reduction inverse
// transform, the oracle for INTTInPlace.
func (r *Ring) INTTInPlaceStrict(i int, a []uint64) {
	t := r.tables[i]
	m := r.Moduli[i]
	n := r.N
	if len(a) != n {
		panic("ring: INTTInPlaceStrict length mismatch")
	}
	half := 1
	for step := n >> 1; step >= 1; step >>= 1 {
		for blk := 0; blk < step; blk++ {
			w := t.psiInvRev[step+blk]
			ws := t.psiInvRevSho[step+blk]
			j1 := 2 * blk * half
			for j := j1; j < j1+half; j++ {
				u := a[j]
				v := a[j+half]
				a[j] = m.AddMod(u, v)
				a[j+half] = m.ShoupMulFull(m.SubMod(u, v), w, ws)
			}
		}
		half <<= 1
	}
	for j := 0; j < n; j++ {
		a[j] = m.ShoupMulFull(a[j], t.nInv, t.nInvSho)
	}
}

// NTT forward-transforms every limb of p in place, fanning limbs over
// the ring's worker pool when WithParallelism configured one.
func (r *Ring) NTT(p *Poly) {
	parallelFor(r.Parallelism(), p.Level()+1, func(i int) {
		r.NTTLimb(i, p.Coeffs[i])
	})
}

// INTT inverse-transforms every limb of p in place (limb-parallel like
// NTT).
func (r *Ring) INTT(p *Poly) {
	parallelFor(r.Parallelism(), p.Level()+1, func(i int) {
		r.INTTLimb(i, p.Coeffs[i])
	})
}

// NTTNaiveLimb is the O(N²) reference forward transform in natural
// output order: out[j] = Σ_i a_i ψ^{i(2j+1)}. It is the oracle against
// which every fast variant is verified.
func (r *Ring) NTTNaiveLimb(i int, a []uint64) []uint64 {
	m := r.Moduli[i]
	t := r.tables[i]
	n := r.N
	out := make([]uint64, n)
	for j := 0; j < n; j++ {
		// root = ψ^(2j+1)
		root := m.MulMod(m.PowMod(t.omega, uint64(j)), t.psi)
		var acc, pw uint64
		pw = 1
		for k := 0; k < n; k++ {
			acc = m.AddMod(acc, m.MulMod(a[k], pw))
			pw = m.MulMod(pw, root)
		}
		out[j] = acc
	}
	return out
}

// INTTNaiveLimb is the O(N²) reference inverse of NTTNaiveLimb.
func (r *Ring) INTTNaiveLimb(i int, b []uint64) []uint64 {
	m := r.Moduli[i]
	t := r.tables[i]
	n := r.N
	out := make([]uint64, n)
	for k := 0; k < n; k++ {
		var acc uint64
		for j := 0; j < n; j++ {
			// ψ^{-k(2j+1)}
			e := m.PowMod(t.psiInv, uint64(k*(2*j+1))%uint64(2*n))
			acc = m.AddMod(acc, m.MulMod(b[j], e))
		}
		out[k] = m.MulMod(acc, t.nInv)
	}
	return out
}
