package serve

import (
	"math"
	"sort"
)

// Latency-statistics modes (Config.Stats). Stored keeps every latency
// sample and computes exact nearest-rank quantiles — the legacy
// behaviour and the byte-identity path. Streaming keeps O(1) memory
// per distribution via P² quantile estimators, unlocking 10^6+-request
// horizons; below streamExactCutoff samples it still answers exactly
// (the estimator buffers until the cutoff), so short streaming runs
// agree with stored runs bit-for-bit.
const (
	StatsStored    = "stored"
	StatsStreaming = "streaming"
)

// streamExactCutoff is the sample count up to which the streaming
// accumulator answers with exact nearest-rank quantiles from a
// retained buffer. Past the cutoff the buffer is replayed into the P²
// markers and dropped. The cutoff is also what the P² tests use as
// the oracle boundary.
const streamExactCutoff = 1000

// p2Quantile is the P² algorithm of Jain & Chlamtac (CACM 1985): a
// single quantile estimated from five markers whose heights are
// adjusted toward their ideal positions with a piecewise-parabolic
// prediction. O(1) memory, deterministic in feed order, and bounded by
// the observed min/max (markers 0 and 4 track the extremes).
type p2Quantile struct {
	p    float64
	n    int        // observations fed
	pos  [5]int     // actual marker positions (1-based)
	want [5]float64 // desired marker positions
	q    [5]float64 // marker heights
	buf  [5]float64 // first five observations, pre-initialisation
}

func newP2(p float64) p2Quantile { return p2Quantile{p: p} }

func (e *p2Quantile) add(x float64) {
	if e.n < 5 {
		e.buf[e.n] = x
		e.n++
		if e.n == 5 {
			b := e.buf
			sort.Float64s(b[:])
			e.q = b
			e.pos = [5]int{1, 2, 3, 4, 5}
			e.want = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	e.n++
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for i := 1; i < 4; i++ {
			if x >= e.q[i] {
				k = i
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	inc := [5]float64{0, e.p / 2, e.p, (1 + e.p) / 2, 1}
	for i := range e.want {
		e.want[i] += inc[i]
	}
	for i := 1; i <= 3; i++ {
		d := e.want[i] - float64(e.pos[i])
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1
			if d < 0 {
				sign = -1
			}
			qn := e.parabolic(i, sign)
			if !(e.q[i-1] < qn && qn < e.q[i+1]) {
				qn = e.linear(i, sign)
			}
			e.q[i] = qn
			e.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i one position in direction d.
func (e *p2Quantile) parabolic(i, d int) float64 {
	ni := float64(e.pos[i])
	nim := float64(e.pos[i-1])
	nip := float64(e.pos[i+1])
	df := float64(d)
	return e.q[i] + df/(nip-nim)*
		((ni-nim+df)*(e.q[i+1]-e.q[i])/(nip-ni)+
			(nip-ni-df)*(e.q[i]-e.q[i-1])/(ni-nim))
}

// linear is the fallback when the parabolic prediction would leave the
// bracketing heights.
func (e *p2Quantile) linear(i, d int) float64 {
	return e.q[i] + float64(d)*(e.q[i+d]-e.q[i])/float64(e.pos[i+d]-e.pos[i])
}

// value returns the current estimate; with fewer than five
// observations it falls back to exact nearest-rank on the buffer.
func (e *p2Quantile) value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		b := append([]float64(nil), e.buf[:e.n]...)
		sort.Float64s(b)
		i := int(math.Ceil(e.p*float64(e.n))) - 1
		if i < 0 {
			i = 0
		}
		return b[i]
	}
	return e.q[2]
}

// latAccum accumulates one latency distribution. The two
// implementations share the contract that samples are fed in a
// deterministic order; stats() may be called once, at the end.
type latAccum interface {
	add(v float64)
	count() int
	stats() LatencyStats
}

// storedAccum is the exact path: keep everything, sort once, answer
// with nearest-rank quantiles — bit-identical to the pre-refactor
// stored-sorted-latency computation.
type storedAccum struct{ vals []float64 }

func newStoredAccum(capHint int) *storedAccum {
	return &storedAccum{vals: make([]float64, 0, capHint)}
}

func (a *storedAccum) add(v float64) { a.vals = append(a.vals, v) }
func (a *storedAccum) count() int    { return len(a.vals) }
func (a *storedAccum) stats() LatencyStats {
	sortLatencies(a.vals)
	return latencyStats(a.vals)
}

// sortLatencies sorts v ascending. When every sample has its sign bit
// clear and none is NaN — latencies are finish − arrival ≥ 0 — it runs
// an LSD radix sort on the float64 bit patterns: such floats order
// exactly like their bits, and two of them are equal only when their
// bits are, so the result is the one sorted sequence sort.Float64s also
// produces, and every quantile and the sorted-order mean are
// bit-identical. Otherwise (a negative, −0 or NaN sample) it falls back
// to sort.Float64s.
func sortLatencies(v []float64) {
	if len(v) < 2 {
		return
	}
	// One pass counts all eight byte digits at once.
	var counts [8][256]int
	for _, x := range v {
		b := math.Float64bits(x)
		if b>>63 != 0 || x != x {
			sort.Float64s(v)
			return
		}
		for d := range counts {
			counts[d][byte(b>>(8*d))]++
		}
	}
	src, dst := v, make([]float64, len(v))
	for d := range counts {
		c := &counts[d]
		if c[byte(math.Float64bits(src[0])>>(8*d))] == len(v) {
			continue // every key shares this digit: the pass is a copy
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, x := range src {
			k := byte(math.Float64bits(x) >> (8 * d))
			dst[c[k]] = x
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &v[0] {
		copy(v, src)
	}
}

// streamAccum is the O(1)-memory path: exact up to streamExactCutoff
// samples, P² markers beyond, with running mean and max throughout.
type streamAccum struct {
	n             int
	sum, max      float64
	exact         []float64 // retained until the cutoff spills
	q50, q95, q99 p2Quantile
}

func newStreamAccum() *streamAccum {
	return &streamAccum{q50: newP2(0.50), q95: newP2(0.95), q99: newP2(0.99)}
}

func (a *streamAccum) add(v float64) {
	a.n++
	if a.n == 1 || v > a.max {
		a.max = v
	}
	a.sum += v
	if a.exact != nil || a.n == 1 {
		a.exact = append(a.exact, v)
		if len(a.exact) <= streamExactCutoff {
			return
		}
		// Spill: replay the buffer into the markers (v included) and
		// drop it — from here on memory stays constant.
		for _, x := range a.exact {
			a.q50.add(x)
			a.q95.add(x)
			a.q99.add(x)
		}
		a.exact = nil
		return
	}
	a.q50.add(v)
	a.q95.add(v)
	a.q99.add(v)
}

func (a *streamAccum) count() int { return a.n }
func (a *streamAccum) stats() LatencyStats {
	if a.n == 0 {
		return LatencyStats{}
	}
	if a.exact != nil {
		sort.Float64s(a.exact)
		return latencyStats(a.exact)
	}
	return LatencyStats{
		MeanS: a.sum / float64(a.n),
		P50S:  a.q50.value(),
		P95S:  a.q95.value(),
		P99S:  a.q99.value(),
		MaxS:  a.max,
	}
}

// newLatAccum picks the accumulator for the configured stats mode.
func newLatAccum(streaming bool, capHint int) latAccum {
	if streaming {
		return newStreamAccum()
	}
	return newStoredAccum(capHint)
}
