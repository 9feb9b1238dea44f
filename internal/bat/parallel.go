package bat

import (
	"fmt"
	"runtime"
	"sync"
)

// Host-side parallelism for the BAT matmul pipeline. Output rows are
// independent (each is an inner product over the shared operands), so
// both the low-precision product and the merge/reduce pass shard their
// row ranges across a goroutine pool. Results are bit-exact versus the
// serial path: every row range runs the identical integer kernel
// (matMulRows / mergeReduceRows) into disjoint output slices, so the
// partition cannot change any value.

// DefaultParallelism is the worker count MulParallel callers typically
// want: one worker per CPU.
func DefaultParallelism() int { return runtime.NumCPU() }

// rowRanges splits n rows into ≤ workers contiguous [start, end)
// chunks of near-equal size.
func rowRanges(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	out := make([][2]int, 0, workers)
	chunk := (n + workers - 1) / workers
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

// runRanges executes f over each range on its own goroutine.
func runRanges(ranges [][2]int, f func(start, end int)) {
	if len(ranges) == 1 {
		f(ranges[0][0], ranges[0][1])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for _, r := range ranges {
		go func(start, end int) {
			defer wg.Done()
			f(start, end)
		}(r[0], r[1])
	}
	wg.Wait()
}

// MatMulLowPrecParallel is MatMulLowPrec with the KH output rows
// sharded across up to `workers` goroutines. workers ≤ 1 is the serial
// path.
func (p *MatMulPlan) MatMulLowPrecParallel(bDense []uint8, w, workers int) ([]int32, error) {
	if p.psumBits() > 31 {
		return nil, fmt.Errorf("bat: partial sums need %d bits, exceeding the 32-bit MXU accumulator", p.psumBits())
	}
	kh, kv := p.K*p.H, p.K*p.V
	if len(bDense) != kv*w {
		return nil, fmt.Errorf("bat: dense right matrix is %d elements, want %d×%d", len(bDense), kv, w)
	}
	z := make([]int32, kh*w)
	runRanges(rowRanges(kh, workers), func(start, end int) {
		p.matMulRows(bDense, w, start, end, z)
	})
	return z, nil
}

// MergeReduceParallel is MergeReduce with the H output rows sharded
// across up to `workers` goroutines.
func (p *MatMulPlan) MergeReduceParallel(z []int32, w, workers int) []uint64 {
	out := make([]uint64, p.H*w)
	runRanges(rowRanges(p.H, workers), func(start, end int) {
		p.mergeReduceRows(z, w, start, end, out)
	})
	return out
}

// MulParallel executes the full BAT pipeline (Alg. 2 MAIN-FULLMATMUL)
// with the matmul and merge stages row-sharded across up to `workers`
// goroutines. Worker counts below 1 (0, negatives) are invalid and
// clamp to the serial path rather than silently misbehaving; the
// result is bit-identical to Mul for every worker count. Intermediates
// live in the plan's own buffers — only the returned H×W result is a
// fresh allocation (use MulInto to avoid even that).
func (p *MatMulPlan) MulParallel(b []uint64, w, workers int) ([]uint64, error) {
	if workers < 1 {
		workers = 1
	}
	if w <= 0 || len(b) != p.V*w {
		return nil, fmt.Errorf("bat: right matrix is %d elements, want %d×%d", len(b), p.V, w)
	}
	out := make([]uint64, p.H*w)
	if err := p.MulInto(out, b, w, workers); err != nil {
		return nil, err
	}
	return out, nil
}
