package hostbench

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// DefaultRepeats is the number of timing samples per kernel and size:
// the calibration harness's default and the gate records' count.
const DefaultRepeats = 5

// Sample is one kernel's raw measurement at one size: every repeat's
// ns/op, unaggregated, so the calibration harness can both fit against
// a robust point estimate and report the spread it fitted through.
type Sample struct {
	// Kernel is the base name (the cross.CalibKernels vocabulary);
	// ID is the full hostbench record ID (base/size).
	Kernel string `json:"kernel"`
	ID     string `json:"id"`
	// N is the polynomial degree the kernel ran at (the containing
	// sweep size for the size-independent BAT matmul).
	N  int       `json:"n"`
	Ns []float64 `json:"ns_per_op"`
	// AllocsPerOp is the heap allocation count over every timed
	// iteration divided by their number, truncated to an integer as
	// testing.AllocsPerRun does.
	AllocsPerOp float64 `json:"allocs_per_op"`

	// scale holds each repeat's reference-kernel factor (refScale) when
	// the sample was measured with the reference.
	scale []float64
}

// Best returns the sample's minimum ns/op — the standard
// least-interference estimator for a deterministic kernel on a noisy
// shared host (every slower repeat is the same work plus interference).
func (s Sample) Best() float64 {
	best := math.Inf(1)
	for _, v := range s.Ns {
		best = math.Min(best, v)
	}
	return best
}

// scaledBest is the sample's minimum ns/op after each repeat is scaled
// by its reference reading: what the kernel takes on the nominal host.
func (s Sample) scaledBest() float64 {
	best := math.Inf(1)
	for r, v := range s.Ns {
		best = math.Min(best, v*s.scale[r])
	}
	return best
}

// measureBudget is the per-sample timing window: long enough to
// amortise timer resolution, short enough that a multi-size ×
// multi-repeat sweep stays a seconds-scale CI step (testing.Benchmark's
// ~1 s settling per invocation would cost minutes here).
const measureBudget = 2 * time.Millisecond

// Measure times every gated kernel at each degree, repeats times per
// point, and returns the raw samples in a stable order (sizes as given,
// kernels in buildKernels order). The size-independent BAT matmul
// rides along with the first size only.
func Measure(sizes []int, repeats int) ([]Sample, error) {
	return measure(sizes, repeats, nil)
}

// measure is Measure that, when ref is not nil, also times the
// reference kernel before and after every repeat and records the
// repeat's scale factor; the raw samples mean the same either way.
func measure(sizes []int, repeats int, ref *hostRef) ([]Sample, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("hostbench: no sizes to measure")
	}
	if repeats < 1 {
		repeats = 1
	}
	var out []Sample
	for si, n := range sizes {
		ks, err := buildKernels(n, si == 0)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			iters, err := calibrateIters(k.op)
			if err != nil {
				return nil, err
			}
			s := Sample{Kernel: k.base, ID: k.id, N: n, Ns: make([]float64, 0, repeats)}
			if ref != nil {
				s.scale = make([]float64, 0, repeats)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < repeats; r++ {
				var refBefore float64
				if ref != nil {
					refBefore = ref.ns()
				}
				v, err := timeOp(k.op, iters)
				if err != nil {
					return nil, err
				}
				s.Ns = append(s.Ns, v)
				if ref != nil {
					s.scale = append(s.scale, refScale(refBefore, ref.ns()))
				}
			}
			runtime.ReadMemStats(&after)
			s.AllocsPerOp = float64((after.Mallocs - before.Mallocs) / uint64(iters*repeats))
			out = append(out, s)
		}
	}
	return out, nil
}

// calibrateIters warms the kernel up and doubles the iteration count
// until one batch fills the measurement budget.
func calibrateIters(op func() error) (int, error) {
	if err := op(); err != nil { // warm-up: caches, page faults, JIT-free but honest
		return 0, err
	}
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		if time.Since(start) >= measureBudget || iters >= 1<<24 {
			return iters, nil
		}
		iters *= 2
	}
}

// timeOp returns one ns/op sample over a fixed iteration batch.
func timeOp(op func() error, iters int) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}
