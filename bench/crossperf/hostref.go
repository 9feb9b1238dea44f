package main

import (
	"math"
	"math/bits"
	"time"
)

// The HE workloads' times are scaled to a fixed host speed by a
// reference kernel the benchmark owns, timed in the same goroutine right
// before and after every request and set-up.
//
// The study host shares its physical cores with other tenants, and
// arithmetic-throughput-bound code such as ring.NTTInPlace runs at half
// speed for seconds to minutes at a time while latency-bound code barely
// slows. Timed alternately for a minute, ring.NTTInPlace at N = 8192
// swung between 113 and 229 µs per call while its ratio to this kernel
// at 8192 points stayed within ±4%. Scaling each request by the
// reference taken around it cut the quartile spread of p50_ms over ten
// runs from 0.08–0.12 to 0.02–0.05 on the HE workloads. serve-sim's
// event loop is latency-bound and its times were already steady (0.03),
// so it is not scaled.
//
// The kernel lives in the benchmark and calls nothing in the repository,
// so a change to the program cannot move it.

// refNominalMs is what hostRef.ms reads on the uncontended study host.
// Scaled times are what the request would have taken there.
const refNominalMs = 0.08

const (
	refN = 4096 // 32 KiB of coefficients: the kernel runs from L1 and L2
	refQ = 0xffffffff00001
)

// hostRef is the reference kernel: the butterflies of a refN-point NTT,
// with Shoup multiplication by fixed pseudo-random twiddles modulo a
// 52-bit prime. Only its speed matters, not its output.
type hostRef struct {
	a, w, wShoup []uint64
}

func newHostRef() *hostRef {
	h := &hostRef{a: make([]uint64, refN), w: make([]uint64, refN), wShoup: make([]uint64, refN)}
	x := uint64(3)
	for i := range h.w {
		x = x * 6364136223846793005 % refQ
		h.w[i] = x
		h.wShoup[i], _ = bits.Div64(x, 0, refQ)
		h.a[i] = uint64(i) * 7919 % refQ
	}
	return h
}

// ms runs the kernel once to warm it, then returns the fastest of three
// timed passes in milliseconds; the fastest, because an interrupt or a
// GC pause lands in one short pass at a time. A nil reference reads 0.
func (h *hostRef) ms() float64 {
	if h == nil {
		return 0
	}
	h.pass()
	best := math.Inf(1)
	for k := 0; k < 3; k++ {
		t := time.Now()
		h.pass()
		best = math.Min(best, ms(time.Since(t)))
	}
	return best
}

func (h *hostRef) pass() {
	a := h.a
	k := 1
	for m := refN / 2; m >= 1; m /= 2 {
		for start := 0; start < refN; start += 2 * m {
			w, ws := h.w[k], h.wShoup[k]
			k = (k + 1) % refN
			for j := start; j < start+m; j++ {
				u := a[j]
				hi, _ := bits.Mul64(a[j+m], ws)
				v := a[j+m]*w - hi*refQ
				if v >= refQ {
					v -= refQ
				}
				x := u + v
				if x >= refQ {
					x -= refQ
				}
				y := u + refQ - v
				if y >= refQ {
					y -= refQ
				}
				a[j], a[j+m] = x, y
			}
		}
	}
}

// scale is the factor that takes a time measured between the reference
// readings before and after it to the nominal host speed: the nominal
// over their geometric mean. Readings of 0 (no reference) give 1.
func scale(before, after float64) float64 {
	if before == 0 || after == 0 {
		return 1
	}
	return refNominalMs / math.Sqrt(before*after)
}
