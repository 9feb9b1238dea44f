// Package crosstest holds the shared cross.Target conformance suite:
// the behavioural contract every hardware backend (tpusim, gpusim, any
// third) must satisfy beyond the compile-time interface check. Backends
// invoke it from their own test packages, so a new backend gets its
// correctness checks for free:
//
//	func TestConformance(t *testing.T) {
//	    crosstest.Conformance(t, crosstest.Backend{
//	        Name:      "gpusim/H100",
//	        NewDevice: func() cross.Target { return gpusim.NewDevice(gpusim.H100()) },
//	        NewNode:   func(cores int) cross.Target { return gpusim.MustNode(gpusim.H100(), cores) },
//	    })
//	}
package crosstest

import (
	"testing"

	"cross/internal/cross"
	"cross/internal/tpusim"
)

// Backend describes one hardware backend under conformance test.
type Backend struct {
	// Name labels subtests ("tpusim/TPUv6e", "gpusim/H100").
	Name string

	// NewDevice builds the backend's single-core target. Each call must
	// return a fresh target.
	NewDevice func() cross.Target

	// NewNode builds the backend's multi-core target at a core count
	// (a pod, a GPU node). Each call must return a fresh target;
	// cores=1 must be accepted.
	NewNode func(cores int) cross.Target
}

// collectives applies each collective method by index, so the suite
// can iterate the three uniformly.
var collectives = []struct {
	name string
	call func(t cross.Target, bytes int64) float64
}{
	{"AllGather", func(t cross.Target, b int64) float64 { return t.AllGather(b) }},
	{"AllReduce", func(t cross.Target, b int64) float64 { return t.AllReduce(b) }},
	{"Broadcast", func(t cross.Target, b int64) float64 { return t.Broadcast(b) }},
}

// Conformance runs the full suite against one backend.
func Conformance(t *testing.T, b Backend) {
	t.Helper()
	t.Run(b.Name, func(t *testing.T) {
		t.Run("DeviceBasics", func(t *testing.T) { conformBasics(t, b.NewDevice()) })
		t.Run("NodeBasics", func(t *testing.T) { conformBasics(t, b.NewNode(4)) })
		t.Run("SingleCoreDegenerate", func(t *testing.T) { conformDegenerate(t, b) })
		t.Run("CollectivesMonotone", func(t *testing.T) { conformMonotone(t, b.NewNode(8)) })
		t.Run("CollectiveTraceOwnership", func(t *testing.T) { conformTraceOwnership(t, b.NewNode(4)) })
		t.Run("OverlapFraction", func(t *testing.T) { conformOverlap(t, b) })
	})
}

// conformBasics checks the structural invariants any target must hold:
// a non-nil core, a positive core count, a non-empty name, and an owned
// (never-nil) collective trace.
func conformBasics(t *testing.T, tgt cross.Target) {
	t.Helper()
	if tgt.Core() == nil {
		t.Fatal("Core() returned nil")
	}
	if tgt.NumCores() < 1 {
		t.Fatalf("NumCores() = %d, want >= 1", tgt.NumCores())
	}
	if tgt.Name() == "" {
		t.Error("Name() is empty")
	}
	if tgt.CollectiveTrace() == nil {
		t.Fatal("CollectiveTrace() returned nil — the contract is never-nil")
	}
	for _, c := range collectives {
		if sec := c.call(tgt, 1<<20); sec < 0 {
			t.Errorf("%s(1 MiB) = %g, want non-negative", c.name, sec)
		}
	}
}

// conformDegenerate checks that the backend's 1-core node is the same
// machine as its bare device: free collectives and a bit-identical
// compute schedule for a representative HE lowering.
func conformDegenerate(t *testing.T, b Backend) {
	t.Helper()
	node := b.NewNode(1)
	for _, c := range collectives {
		if sec := c.call(node, 1<<24); sec != 0 {
			t.Errorf("1-core node %s(16 MiB) = %g, want 0 (collectives are free on one core)", c.name, sec)
		}
	}

	p := cross.SetB()
	lower := func(tgt cross.Target) *cross.Schedule {
		comp, err := cross.Compile(tgt, p)
		if err != nil {
			t.Fatalf("Compile(%s): %v", tgt.Name(), err)
		}
		return comp.LowerHEMult()
	}
	dev, nod := lower(b.NewDevice()), lower(node)
	if dev.Total != nod.Total {
		t.Errorf("HE-Mult total: device %.17g != 1-core node %.17g (must be bit-identical)", dev.Total, nod.Total)
	}
	if dev.Overlapped != nod.Overlapped {
		t.Errorf("HE-Mult overlapped: device %.17g != 1-core node %.17g", dev.Overlapped, nod.Overlapped)
	}
	if dev.Kernels != nod.Kernels {
		t.Errorf("HE-Mult kernels: device %+v != 1-core node %+v", dev.Kernels, nod.Kernels)
	}
	if nod.Collective != 0 {
		t.Errorf("1-core node HE-Mult collective share = %g, want 0", nod.Collective)
	}
}

// conformMonotone checks collective costs are non-negative and
// non-decreasing in payload size on a multi-core target, and strictly
// positive for a non-trivial payload.
func conformMonotone(t *testing.T, tgt cross.Target) {
	t.Helper()
	sizes := []int64{0, 1, 4 << 10, 1 << 20, 16 << 20, 1 << 30}
	for _, c := range collectives {
		prev := -1.0
		for _, bytes := range sizes {
			sec := c.call(tgt, bytes)
			if sec < 0 {
				t.Errorf("%s(%d) = %g, want non-negative", c.name, bytes, sec)
			}
			if sec < prev {
				t.Errorf("%s(%d) = %g < %s(previous size) = %g, want monotone in bytes", c.name, bytes, sec, c.name, prev)
			}
			prev = sec
		}
		if sec := c.call(tgt, 1<<20); sec <= 0 {
			t.Errorf("%s(1 MiB) on %d cores = %g, want > 0", c.name, tgt.NumCores(), sec)
		}
	}
}

// conformTraceOwnership checks the collective-trace contract every
// Compiler lowering relies on: charges land in the owned trace,
// SetCollectiveTrace swaps where subsequent charges go, and the
// original trace is untouched after a swap.
func conformTraceOwnership(t *testing.T, tgt cross.Target) {
	t.Helper()
	orig := tgt.CollectiveTrace()
	sec := tgt.AllReduce(1 << 20)
	if got := orig.Total(); got != sec {
		t.Fatalf("owned trace total = %g after AllReduce returning %g, want equal", got, sec)
	}

	swapped := tpusim.NewTrace()
	tgt.SetCollectiveTrace(swapped)
	if tgt.CollectiveTrace() != swapped {
		t.Fatal("CollectiveTrace() does not return the trace installed by SetCollectiveTrace")
	}
	before := orig.Total()
	sec2 := tgt.AllGather(1 << 20)
	if got := swapped.Total(); got != sec2 {
		t.Errorf("swapped trace total = %g after AllGather returning %g, want equal", got, sec2)
	}
	if got := orig.Total(); got != before {
		t.Errorf("original trace total moved %g → %g after the swap; charges leaked", before, got)
	}
}

// conformOverlap checks the overlap model's bounds on both target
// shapes: OverlapFraction ∈ [0, 1] and 0 < Overlapped ≤ Total for a
// non-empty lowering.
func conformOverlap(t *testing.T, b Backend) {
	t.Helper()
	p := cross.SetB()
	for _, tgt := range []cross.Target{b.NewDevice(), b.NewNode(8)} {
		comp, err := cross.Compile(tgt, p)
		if err != nil {
			t.Fatalf("Compile(%s): %v", tgt.Name(), err)
		}
		for _, s := range []*cross.Schedule{comp.LowerHEMult(), comp.LowerRotate(), comp.LowerKeySwitch()} {
			if f := s.OverlapFraction(); f < 0 || f > 1 {
				t.Errorf("%s on %s: OverlapFraction = %g, want in [0, 1]", s.Op, tgt.Name(), f)
			}
			if s.Overlapped <= 0 || s.Overlapped > s.Total {
				t.Errorf("%s on %s: Overlapped %g outside (0, Total=%g]", s.Op, tgt.Name(), s.Overlapped, s.Total)
			}
		}
	}
}
