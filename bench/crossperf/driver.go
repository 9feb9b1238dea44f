package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// runner is one set-up workload instance, driven by one closed-loop
// client.
type runner interface {
	// request runs request i, recording spans into ln (nil when
	// untraced). keep asks the runner to retain the output so that
	// verify can check it after the timed region.
	request(i int, ln *lane, keep bool) error
	// verify checks every output retained since the last call. It
	// returns the precision in bits of each checked HE output and the
	// number of other failed checks.
	verify() (bits []float64, failed int)
	// counts returns exact per-request layer counts over the requests
	// made since the last call.
	counts() map[string]float64
}

// checkedStretches cuts a timed phase into equal stretches of time; the
// client keeps the first output of each, plus its last, for checking, so
// the number of retained outputs does not depend on how fast the code is.
const checkedStretches = 10

// completion is one finished request.
type completion struct {
	latMs float64
	cpuMs float64 // process user+sys CPU time during the request, GC included
	refMs float64 // the reference kernel right after the request (0 when unscaled)
	liveB float64 // live heap the last GC cycle marked, read after the request
}

// phase is what one closed-loop timed phase measured.
type phase struct {
	done      []completion
	ref0Ms    float64 // the reference kernel right before the first request
	errors    int
	firstErr  error
	allocB    float64 // bytes allocated on the heap
	gcCycles  float64
	gcCPUFrac float64
	heapLiveB float64 // live heap at the end of the phase
}

func (p *phase) requests() int { return len(p.done) }

const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mLive     = "/gc/heap/live:bytes"
)

func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase runs one closed-loop client: it sends its next request only
// after the previous one returned, and stops starting requests after d,
// or after quick requests when quick > 0. Spans go to ln (nil when
// untraced). With a reference kernel, the client times it before the
// first request and after every request, outside the request's time.
func runPhase(r runner, d time.Duration, quick int, ln *lane, ref *hostRef) phase {
	before := readMetrics(mAllocs, mCycles, mGCCPU, mTotalCPU)
	p := phase{ref0Ms: ref.ms()}
	live := []metrics.Sample{{Name: mLive}}
	t0 := time.Now()
	lastStretch := -1
	for i := 0; ; i++ {
		start := time.Now()
		since := start.Sub(t0)
		if (quick > 0 && i >= quick) || (quick == 0 && since >= d) {
			break
		}
		keep := quick > 0
		if s := int(since * checkedStretches / max(d, 1)); s != lastStretch {
			keep, lastStretch = true, s
		}
		cpu0 := cpuTime()
		err := r.request(i, ln, keep)
		c := completion{latMs: ms(time.Since(start)), cpuMs: ms(cpuTime() - cpu0)}
		metrics.Read(live)
		c.liveB = float64(live[0].Value.Uint64())
		c.refMs = ref.ms()
		p.done = append(p.done, c)
		if err != nil {
			p.errors++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
	}
	after := readMetrics(mAllocs, mCycles, mGCCPU, mTotalCPU, mLive)
	p.allocB = after[0] - before[0]
	p.gcCycles = after[1] - before[1]
	if total := after[3] - before[3]; total > 0 {
		p.gcCPUFrac = (after[2] - before[2]) / total
	}
	p.heapLiveB = after[4]
	return p
}

// phaseStats are a phase's timing and heap statistics over all its
// requests, each request's times scaled by the reference readings
// around it.
type phaseStats struct {
	p50, p90 float64 // latency quantiles, ms
	rate     float64 // requests per second of request time
	cpuMs    float64 // CPU per request
	heapP90B float64 // 90th percentile of the live heap read after each request
	refMs    float64 // median reference reading (0 when unscaled)
	rawP50   float64 // p50 as measured, before scaling
}

func (p *phase) stats() phaseStats {
	n := len(p.done)
	lat, raw, live, refs := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var latSum, cpuSum float64
	prev := p.ref0Ms
	for k, c := range p.done {
		f := scale(prev, c.refMs)
		prev = c.refMs
		lat[k], raw[k], live[k], refs[k] = c.latMs*f, c.latMs, c.liveB, c.refMs
		latSum += lat[k]
		cpuSum += c.cpuMs * f
	}
	return phaseStats{
		p50:      quantile(lat, 0.5),
		p90:      quantile(lat, 0.9),
		rate:     1e3 * float64(n) / latSum,
		cpuMs:    cpuSum / float64(n),
		heapP90B: quantile(live, 0.9),
		refMs:    median(refs),
		rawP50:   quantile(raw, 0.5),
	}
}

// median returns the middle value (mean of the middle two); NaN when xs
// is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
