package hostbench

import (
	"math"
	"math/bits"
	"time"
)

// The gate scales every ns/op sample by a reference kernel the package
// owns, timed in the same goroutine right before and after the sample,
// so a record reads what the kernel would take on a host where the
// reference takes refNominalNs. On a shared host, arithmetic-bound code
// runs at half speed for seconds at a time while a co-tenant holds the
// core; the reference slows with it, and the scaled number does not.
// The reference calls nothing else in the repository, so a change to
// the program cannot move it. bench/crossperf scales its HE workloads by
// the same kernel.

// refNominalNs is the reading bench/crossperf takes as nominal, so both
// scale to the same host speed. The 2-vCPU Xeon that recorded
// BENCH_host.json reads 63–66 µs uncontended and 115–130 µs while a
// co-tenant shares the core.
const refNominalNs = 80_000

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

// ns runs the kernel once to warm it, then returns the fastest of three
// timed passes in nanoseconds; the fastest, because an interrupt or a
// GC pause lands in one short pass at a time.
func (h *hostRef) ns() float64 {
	h.pass()
	best := math.Inf(1)
	for k := 0; k < 3; k++ {
		t := time.Now()
		h.pass()
		best = math.Min(best, float64(time.Since(t).Nanoseconds()))
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

// refScale is the factor that takes a sample timed between reference
// readings before and after it to the nominal host: the nominal over
// their geometric mean.
func refScale(before, after float64) float64 {
	return refNominalNs / math.Sqrt(before*after)
}
