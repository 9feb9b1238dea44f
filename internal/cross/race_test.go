package cross

import (
	"sync"
	"testing"

	"cross/internal/tpusim"
)

// The sweep engine lowers concurrently on shared compilers, programs,
// and a shared schedule cache. These tests are the `go test -race`
// tripwires for that path: before the Compiler/Program memoization was
// mutex-guarded, each of them raced on the live trace swap in lowerOp
// or on the program memo map.

// TestConcurrentLowerOnSharedCompiler hammers one compiler from many
// goroutines and checks every goroutine observes the serial answer.
func TestConcurrentLowerOnSharedCompiler(t *testing.T) {
	c, err := Compile(tpusim.MustPod(tpusim.TPUv6e(), 4), SetC())
	if err != nil {
		t.Fatal(err)
	}
	wantMult := c.LowerHEMult().Total
	wantRot := c.LowerRotate().Total

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := c.LowerHEMult().Total; got != wantMult {
					errs <- "HE-Mult total changed under concurrency"
					return
				}
				if got := c.LowerRotate().Total; got != wantRot {
					errs <- "Rotate total changed under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentOverlappedLower is the DAG engine's race tripwire:
// the observer attach/detach and DAG build/execute in lowerOp are
// compiler-global state under the same lock as the trace swap, and the
// overlapped makespan must be as deterministic under concurrency as
// the serial total.
func TestConcurrentOverlappedLower(t *testing.T) {
	c, err := Compile(tpusim.MustPod(tpusim.TPUv6e(), 8), SetD())
	if err != nil {
		t.Fatal(err)
	}
	ref := c.LowerHEMult()
	wantOv, wantNodes := ref.Overlapped, ref.DAGNodes
	if wantOv <= 0 || wantOv >= ref.Total {
		t.Fatalf("reference lowering shows no overlap (%g of %g) — tripwire is vacuous", wantOv, ref.Total)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				s := c.LowerHEMult()
				if s.Overlapped != wantOv || s.DAGNodes != wantNodes {
					errs <- "overlapped lowering changed under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentProgramLower lowers one shared Program from many
// goroutines; the memo map write used to race.
func TestConcurrentProgramLower(t *testing.T) {
	c, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), SetB())
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(c).HEMultN(3).RotateN(1, 2).HEAdd().Rescale()
	want := prog.Lower().Total

	const workers = 8
	var wg sync.WaitGroup
	totals := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			totals[w] = prog.Lower().Total
		}(w)
	}
	wg.Wait()
	for w, got := range totals {
		if got != want {
			t.Errorf("worker %d: Program total %.9g != serial %.9g", w, got, want)
		}
	}
}

// TestScheduleCacheSharedAcrossPrograms runs distinct programs over a
// shared cache concurrently and checks (a) cached results are
// bit-identical to uncached lowerings and (b) each distinct operator
// lowered exactly once process-wide.
func TestScheduleCacheSharedAcrossPrograms(t *testing.T) {
	sc := NewScheduleCache()
	const workers = 8
	var wg sync.WaitGroup
	totals := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker builds its own pod/compiler/program — only
			// the cache is shared, as in the sweep engine.
			c, err := Compile(tpusim.MustPod(tpusim.TPUv6e(), 2), SetA())
			if err != nil {
				t.Error(err)
				return
			}
			totals[w] = NewProgram(c).WithCache(sc).HEMult().Rotate(1).Lower().Total
		}(w)
	}
	wg.Wait()

	cUn, err := Compile(tpusim.MustPod(tpusim.TPUv6e(), 2), SetA())
	if err != nil {
		t.Fatal(err)
	}
	want := NewProgram(cUn).HEMult().Rotate(1).Lower().Total
	for w, got := range totals {
		if got != want {
			t.Errorf("worker %d: cached total %.9g != uncached %.9g", w, got, want)
		}
	}
	if sc.Len() != 2 {
		t.Errorf("cache has %d entries, want 2 (mult, rotate)", sc.Len())
	}
}
