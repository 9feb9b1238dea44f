package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Host-side parallelism (the CPU analogue of the pod's limb sharding).
// RNS limbs are fully independent through the NTT, so the transforms
// fan limbs out over a goroutine worker pool. Parallel execution is
// bit-exact by construction: each limb runs the unchanged serial
// kernel, only the assignment of limbs to workers varies — there is no
// floating point and no cross-limb state, so results are independent
// of scheduling.

// WithParallelism returns a view of the ring whose whole-polynomial
// transforms (NTT, INTT, ForLimbs, and MatNTTPlan.Forward/Inverse on
// plans built from the view) distribute limbs across up to `workers`
// goroutines. workers ≤ 1 selects the serial path; the view shares all
// twiddle tables with the receiver.
func (r *Ring) WithParallelism(workers int) *Ring {
	cp := *r
	if workers < 1 {
		workers = 1
	}
	cp.parallelism = workers
	return &cp
}

// Parallelism reports the ring's configured worker count (≥ 1).
func (r *Ring) Parallelism() int {
	if r.parallelism < 1 {
		return 1
	}
	return r.parallelism
}

// DefaultParallelism is the worker count WithParallelism callers
// typically want: one worker per processor the Go scheduler may use,
// so a GOMAXPROCS or cgroup CPU limit is respected.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// ForLimbs runs f(0..n-1) over the ring's workers. The iterations must
// be independent (in practice: one limb each, writing only that limb's
// output), so the result does not depend on the worker count.
func (r *Ring) ForLimbs(n int, f func(i int)) { parallelFor(r.Parallelism(), n, f) }

// limbJob is the state one parallelFor call shares with its helpers.
// Jobs are reused through a free list, so a steady-state fan-out
// allocates nothing beyond the caller's closure.
type limbJob struct {
	f    func(int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
}

// run claims iterations from the shared counter until none are left, so
// uneven iteration costs balance.
func (j *limbJob) run() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.f(int(i))
	}
}

var (
	jobs FreeList[*limbJob]
	// jobQueue hands jobs to helper goroutines. A helper is started as
	// `go helpJob()` — a static function, so the spawn needs no closure
	// — and takes exactly one job; every send is paired with one spawn,
	// so a send never waits on a helper that does not exist.
	jobQueue = make(chan *limbJob, 64)
)

func helpJob() {
	j := <-jobQueue
	j.run()
	j.wg.Done()
}

// parallelFor runs f(0..n-1) on up to `workers` goroutines: the caller
// runs one share itself and workers−1 helpers run the rest.
func parallelFor(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	j, ok := jobs.Get()
	if !ok {
		j = new(limbJob)
	}
	j.f, j.n = f, int64(n)
	j.next.Store(0)
	j.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go helpJob()
		jobQueue <- j
	}
	j.run()
	j.wg.Wait()
	j.f = nil
	jobs.Put(j)
}
