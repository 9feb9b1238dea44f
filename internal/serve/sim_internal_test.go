package serve

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
)

// FuzzEventHeapOrder: the typed heap pops, at every step of an
// interleaved push/pop sequence, the earliest pending event in the
// total (time, seq) order the determinism contract depends on. The
// oracle is independent of the heap: a stable sort of the pending set.
// Coarse times force same-time collisions so the seq tiebreak is hit,
// and seqs are unique but not monotone in push order.
func FuzzEventHeapOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{255, 0, 255, 0, 255, 0, 255, 0})
	f.Add([]byte{6, 1, 6, 2, 6, 3, 7, 9, 7, 9, 7, 9, 6, 4, 7, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			t.Skip()
		}
		order := func(a, b event) int {
			switch {
			case a.at < b.at:
				return -1
			case a.at > b.at:
				return 1
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		}
		var h eventHeap
		var pending []event
		check := func(step int) {
			got := h.pop()
			slices.SortStableFunc(pending, order)
			want := pending[0]
			pending = pending[1:]
			if got != want {
				t.Fatalf("step %d: popped (%g, %d), want (%g, %d)", step, got.at, got.seq, want.at, want.seq)
			}
		}
		for i := 0; i+1 < len(raw); i += 2 {
			// Low bit of the first byte: pop (when anything is pending)
			// or push an event decoded from the pair.
			if raw[i]&1 == 1 && len(pending) > 0 {
				check(i / 2)
				continue
			}
			e := event{
				at:   float64(raw[i]>>1%16) * 0.25,
				seq:  int64(raw[i+1])<<16 | int64(i/2),
				kind: int(raw[i] % 10),
				aux:  i,
			}
			h.push(e)
			pending = append(pending, e)
		}
		for n := 0; len(pending) > 0; n++ {
			check(len(raw) + n)
		}
		if len(h) != 0 {
			t.Fatalf("heap holds %d events after the oracle drained", len(h))
		}
	})
}

// FuzzSortLatencies: sortLatencies matches sort.Float64s bit for bit,
// on the radix path (every sample non-negative, not NaN) and on the
// fallback (a negative, −0 or NaN sample), at lengths from 0 to 3071.
// Samples mix 0, subnormals, +Inf, duplicates and wide-exponent
// normals; coarse clears the low mantissa bytes so that low radix
// digits are constant while higher ones vary.
func FuzzSortLatencies(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), false)
	f.Add(uint64(2), uint16(1), uint8(0), false)
	f.Add(uint64(3), uint16(2), uint8(1), false)
	f.Add(uint64(4), uint16(17), uint8(2), false)
	f.Add(uint64(5), uint16(1000), uint8(3), false)
	f.Add(uint64(6), uint16(3000), uint8(4), false)
	f.Add(uint64(7), uint16(3), uint8(0), true)
	f.Add(uint64(8), uint16(900), uint8(0), true)
	f.Add(uint64(9), uint16(64), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, poison uint8, coarse bool) {
		n %= 3072
		g := newSplitmix(seed)
		v := make([]float64, n)
		for i := range v {
			switch r := g.next(); r % 8 {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.Float64frombits(r >> 12) // subnormal (or 0)
			case 2:
				v[i] = math.Inf(1)
			case 3:
				if i > 0 {
					v[i] = v[g.next()%uint64(i)] // duplicate
				}
			case 4:
				v[i] = math.SmallestNonzeroFloat64
			default:
				// Exponent below 0x7ff keeps it finite and positive.
				v[i] = math.Float64frombits(r % (0x7ff << 52))
			}
			if coarse && !math.IsInf(v[i], 1) {
				v[i] = math.Float64frombits(math.Float64bits(v[i]) &^ 0xffff)
			}
		}
		// A poisoned sample forces the fallback.
		if n > 0 && poison%5 != 0 {
			at := g.next() % uint64(n)
			switch poison % 5 {
			case 1:
				v[at] = -1
			case 2:
				v[at] = math.Copysign(0, -1)
			case 3:
				v[at] = math.NaN()
			case 4:
				v[at] = math.Inf(-1)
			}
		}
		want := append([]float64(nil), v...)
		sort.Float64s(want)
		sortLatencies(v)
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d poison=%d: index %d is %v (%#x), sort.Float64s gives %v (%#x)",
					n, poison%5, i, v[i], math.Float64bits(v[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// sliceSource is a fixed arrival stream for white-box tests; endless
// makes it repeat its last arrival forever.
type sliceSource struct {
	times   []float64
	classes []int
	endless bool
	i       int
}

func (s *sliceSource) Next() (float64, int, bool) {
	if s.i >= len(s.times) {
		if !s.endless || len(s.times) == 0 {
			return 0, 0, false
		}
		return s.times[len(s.times)-1], s.classes[len(s.times)-1], true
	}
	s.i++
	return s.times[s.i-1], s.classes[s.i-1], true
}

// TestArrivalSourceChecked: drawing arrivals rejects a NaN or
// decreasing time with ErrArrivalOrder, a class outside the mix with
// ErrArrivalClass and a source that outruns the request cap with
// ErrRequestCap; ties and an exactly-full cap pass.
func TestArrivalSourceChecked(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name    string
		times   []float64
		classes []int // nil: class 0 throughout
		endless bool
		reqCap  int
		want    error
	}{
		{"nondecreasing with ties", []float64{0, 0.5, 0.5, 1}, nil, false, 10, nil},
		{"exactly at the cap", []float64{1, 2, 3}, nil, false, 3, nil},
		{"empty", nil, nil, false, 10, nil},
		{"every class of the mix", []float64{1, 2}, []int{1, 0}, false, 10, nil},
		{"decreasing", []float64{0.1, 0.3, 0.2}, nil, false, 10, ErrArrivalOrder},
		{"NaN first", []float64{nan, 1}, nil, false, 10, ErrArrivalOrder},
		{"NaN later", []float64{0.1, nan}, nil, false, 10, ErrArrivalOrder},
		{"class past the mix", []float64{1, 2}, []int{0, 2}, false, 10, ErrArrivalClass},
		{"negative class", []float64{1}, []int{-1}, false, 10, ErrArrivalClass},
		{"one over the cap", []float64{1, 2, 3, 4}, nil, false, 3, ErrRequestCap},
		{"never ends", []float64{0.25}, nil, true, 100, ErrRequestCap},
	} {
		classes := tc.classes
		if classes == nil {
			classes = make([]int, len(tc.times))
		}
		src := &sliceSource{times: tc.times, classes: classes, endless: tc.endless}
		s := &sim{}
		err := s.drawArrivals(src, []float64{math.Inf(1), math.Inf(1)}, 0, tc.reqCap)
		if !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
			continue
		}
		if err == nil && (len(s.reqs) != len(tc.times) || s.pending != len(tc.times) || s.seq != int64(len(tc.times))) {
			t.Errorf("%s: %d requests, pending %d, seq %d; want %d each",
				tc.name, len(s.reqs), s.pending, s.seq, len(tc.times))
		}
	}
}

// TestLatencyStatsQuantiles pins the nearest-rank definition
// (index ⌈p·n⌉ − 1 of the sorted sample) at its edges.
func TestLatencyStatsQuantiles(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1) // sorted: 1, 2, …, n
		}
		return v
	}
	for _, tc := range []struct {
		name               string
		in                 []float64
		p50, p95, p99, max float64
		mean               float64
	}{
		{"empty", nil, 0, 0, 0, 0, 0},
		{"n=1", []float64{4.5}, 4.5, 4.5, 4.5, 4.5, 4.5},
		{"n=2 p50 is the lower sample", []float64{1, 3}, 1, 3, 3, 3, 2},
		{"all equal", []float64{7, 7, 7, 7, 7}, 7, 7, 7, 7, 7},
		// n=100: ⌈0.5·100⌉−1 = 49 → 50; ⌈0.95·100⌉−1 = 94 → 95;
		// ⌈0.99·100⌉−1 = 98 → 99 (not the max).
		{"n=100 exact ranks", ramp(100), 50, 95, 99, 100, 50.5},
		// n=101: every ⌈p·n⌉ rounds up — p50 → index 50 → 51.
		{"n=101 round up", ramp(101), 51, 96, 100, 101, 51},
		// n=10: p99 collapses onto the max.
		{"n=10 p99 is max", ramp(10), 5, 10, 10, 10, 5.5},
	} {
		got := latencyStats(tc.in)
		if got.P50S != tc.p50 || got.P95S != tc.p95 || got.P99S != tc.p99 || got.MaxS != tc.max {
			t.Errorf("%s: got p50=%g p95=%g p99=%g max=%g, want %g/%g/%g/%g",
				tc.name, got.P50S, got.P95S, got.P99S, got.MaxS, tc.p50, tc.p95, tc.p99, tc.max)
		}
		if math.Abs(got.MeanS-tc.mean) > 1e-12 {
			t.Errorf("%s: mean %g, want %g", tc.name, got.MeanS, tc.mean)
		}
	}
}

// TestLatencyStatsMonotoneInP: on any sorted sample the nearest-rank
// quantiles are non-decreasing in p and bounded by the extremes.
func TestLatencyStatsMonotoneInP(t *testing.T) {
	rng := newSplitmix(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(rng.next()%40)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.next()%1000) / 100
		}
		sort.Float64s(v)
		s := latencyStats(v)
		if !(s.P50S <= s.P95S && s.P95S <= s.P99S && s.P99S <= s.MaxS) {
			t.Fatalf("n=%d: quantiles not monotone: %+v", n, s)
		}
		if s.P50S < v[0] || s.MaxS != v[n-1] {
			t.Fatalf("n=%d: quantiles escape the sample range: %+v", n, s)
		}
	}
}

// newSplitmix gives the internal tests a tiny deterministic generator
// without importing the fault package into this file's dependencies.
type splitmix struct{ s uint64 }

func newSplitmix(s uint64) *splitmix { return &splitmix{s: s} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
