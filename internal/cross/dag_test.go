package cross

import (
	"math"
	"testing"

	"cross/internal/tpusim"
)

// --- engine property tests (hand-built DAGs) ---

// TestEngineChainEqualsSerialSum: on a pure chain the makespan is the
// left-to-right sum of durations — exactly the serial model, bit for
// bit (same association order as a running sum).
func TestEngineChainEqualsSerialSum(t *testing.T) {
	d := NewSegDAG()
	durs := []float64{3.5e-6, 1e-7, 9.25e-6, 2e-8, 4.875e-6}
	prev := -1
	var want float64
	for _, dur := range durs {
		if prev < 0 {
			prev = d.Add(SegCompute, "n", dur)
		} else {
			prev = d.Add(SegCompute, "n", dur, prev)
		}
		want += dur
	}
	got, err := d.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("chain makespan = %.17g, want serial sum %.17g (must be bit-identical)", got, want)
	}
}

// TestEngineDiamondCriticalPath: fork-join diamonds resolve to the
// critical path, not the sum.
func TestEngineDiamondCriticalPath(t *testing.T) {
	// a → {b, c} → d with c the long arm.
	d := NewSegDAG()
	a := d.Add(SegCompute, "a", 1.0)
	b := d.Add(SegHBM, "b", 2.0, a)
	c := d.Add(SegCompute, "c", 5.0, a)
	d.Add(SegCompute, "d", 3.0, b, c)
	got, err := d.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 + 5.0 + 3.0; got != want {
		t.Errorf("diamond makespan = %g, want critical path %g", got, want)
	}

	// Wide fork-join: the makespan is the longest arm plus the join.
	f := NewSegDAG()
	src := f.Add(SegCompute, "src", 1.0)
	arms := []int{}
	for i, dur := range []float64{2, 7, 3, 5} {
		kind := SegCompute
		if i%2 == 1 {
			kind = SegICI
		}
		arms = append(arms, f.Add(kind, "arm", dur, src))
	}
	f.Add(SegCompute, "join", 2.0, arms...)
	got, err = f.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 + 7.0 + 2.0; got != want {
		t.Errorf("fork-join makespan = %g, want %g", got, want)
	}
}

// TestEngineDisconnectedComponents: independent components overlap
// fully — the makespan is the longest component.
func TestEngineDisconnectedComponents(t *testing.T) {
	d := NewSegDAG()
	d.Add(SegCompute, "x", 4.0)
	d.Add(SegICI, "y", 9.0)
	d.Add(SegHBM, "z", 2.0)
	got, err := d.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got != 9.0 {
		t.Errorf("makespan = %g, want 9 (longest independent segment)", got)
	}
}

// TestEngineEmptyDAG: no segments, zero makespan.
func TestEngineEmptyDAG(t *testing.T) {
	got, err := NewSegDAG().Execute()
	if err != nil || got != 0 {
		t.Errorf("empty DAG: (%g, %v), want (0, nil)", got, err)
	}
}

// TestEngineCycleIsErrorNotHang: a dependency cycle must be reported
// as an error — the engine counts unexecutable nodes instead of
// waiting on them, so this returns promptly by construction.
func TestEngineCycleIsErrorNotHang(t *testing.T) {
	d := NewSegDAG()
	a := d.Add(SegCompute, "a", 1.0)
	b := d.Add(SegCompute, "b", 1.0, a)
	d.Nodes[a].Deps = append(d.Nodes[a].Deps, b) // close the cycle
	if _, err := d.Execute(); err == nil {
		t.Fatal("cyclic DAG executed without error")
	}

	// Self-loop.
	s := NewSegDAG()
	x := s.Add(SegCompute, "x", 1.0)
	s.Nodes[x].Deps = append(s.Nodes[x].Deps, x)
	if _, err := s.Execute(); err == nil {
		t.Fatal("self-loop executed without error")
	}
}

// TestEngineRejectsOutOfRangeDep: malformed indices are an error, not
// a panic or a silent skip.
func TestEngineRejectsOutOfRangeDep(t *testing.T) {
	d := NewSegDAG()
	d.Add(SegCompute, "a", 1.0, 7)
	if _, err := d.Execute(); err == nil {
		t.Fatal("out-of-range dependency executed without error")
	}
}

// --- schedule-level property tests (real lowerings) ---

// overlapTargets enumerates a representative target × params grid.
func overlapTargets(t *testing.T) []*Compiler {
	t.Helper()
	var out []*Compiler
	for _, spec := range tpusim.AllSpecs() {
		for _, p := range []Params{SetA(), SetC(), SetD()} {
			for _, cores := range []int{1, 4, 16} {
				pod, err := tpusim.NewPod(spec, cores)
				if err != nil {
					t.Fatal(err)
				}
				c, err := Compile(pod, p)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// TestOverlappedBoundedBySerial: for every real lowering,
// 0 < Overlapped ≤ Total, OverlapFraction ∈ [0, 1], and
// the makespan can never undercut the on-core serial chain (Total −
// Collective − HBM) nor the in-order ICI chain (Collective).
func TestOverlappedBoundedBySerial(t *testing.T) {
	for _, c := range overlapTargets(t) {
		for _, s := range []*Schedule{
			c.LowerHEMult(),
			c.LowerRotate(),
			c.LowerKeySwitch(),
			c.LowerNTT(64),
			c.LowerBootstrap(DefaultBootstrapSchedule(c.P)),
		} {
			id := s.Op + " on " + s.Target
			if s.Overlapped <= 0 || s.Overlapped > s.Total {
				t.Errorf("%s: overlapped %g outside (0, total=%g]", id, s.Overlapped, s.Total)
			}
			if f := s.OverlapFraction(); f < 0 || f > 1 || math.IsNaN(f) {
				t.Errorf("%s: overlap fraction %g outside [0,1]", id, f)
			}
			// Only HBM and ICI segments leave the serial chain, so the
			// makespan is bounded below by both the chain and the ICI
			// sequence (small slack for fp association).
			chain := s.Total - s.Collective - s.Seconds(tpusim.CatHBM)
			slack := 1e-9 * s.Total
			if s.Overlapped < chain-slack {
				t.Errorf("%s: overlapped %g below on-core chain %g", id, s.Overlapped, chain)
			}
			if s.Overlapped < s.Collective-slack {
				t.Errorf("%s: overlapped %g below ICI chain %g", id, s.Overlapped, s.Collective)
			}
			if s.DAGNodes <= 0 || s.DAGEdges < s.DAGNodes-1 {
				t.Errorf("%s: implausible DAG shape (%d nodes, %d edges)", id, s.DAGNodes, s.DAGEdges)
			}
		}
	}
}

// TestOverlapAcceptanceBootstrap is the PR's acceptance criterion:
// multi-core SetC/SetD Bootstrap must show Overlapped strictly
// below Total with a positive reported overlap fraction, and the
// hidden share must grow with the core count as more ICI time hides
// behind compute (the pod-scaling bend).
func TestOverlapAcceptanceBootstrap(t *testing.T) {
	for _, set := range []string{"C", "D"} {
		p, err := NamedSet(set)
		if err != nil {
			t.Fatal(err)
		}
		prevFrac := 0.0
		for _, cores := range []int{2, 4, 8} {
			pod, err := tpusim.NewPod(tpusim.TPUv6e(), cores)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(pod, p)
			if err != nil {
				t.Fatal(err)
			}
			s := c.LowerBootstrap(DefaultBootstrapSchedule(p))
			if s.Overlapped >= s.Total {
				t.Errorf("Set%s %d-core Bootstrap: overlapped %g not below serial %g",
					set, cores, s.Overlapped, s.Total)
			}
			f := s.OverlapFraction()
			if f <= 0 {
				t.Errorf("Set%s %d-core Bootstrap: overlap fraction %g not positive", set, cores, f)
			}
			if f <= prevFrac {
				t.Errorf("Set%s: overlap fraction %g at %d cores not above %g at the previous size",
					set, f, cores, prevFrac)
			}
			prevFrac = f
		}
	}
}

// TestOverlapDeviceEqualsOnePod: the 1-core degenerate case — a bare
// Device and a 1-core Pod produce identical overlapped latencies, like
// every other Schedule field.
func TestOverlapDeviceEqualsOnePod(t *testing.T) {
	p := SetC()
	dev, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
	if err != nil {
		t.Fatal(err)
	}
	pod1, err := tpusim.NewPod(tpusim.TPUv6e(), 1)
	if err != nil {
		t.Fatal(err)
	}
	podc, err := Compile(pod1, p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := dev.LowerHEMult(), podc.LowerHEMult()
	if a.Overlapped != b.Overlapped || a.DAGNodes != b.DAGNodes || a.DAGEdges != b.DAGEdges {
		t.Errorf("device (%g, %d, %d) != 1-core pod (%g, %d, %d)",
			a.Overlapped, a.DAGNodes, a.DAGEdges, b.Overlapped, b.DAGNodes, b.DAGEdges)
	}
}

// TestProgramOverlappedComposes: a program's overlapped latency is the
// count- and batch-scaled sum of its operators' (ops serialize across
// boundaries — no cross-op overlap).
func TestProgramOverlappedComposes(t *testing.T) {
	pod, err := tpusim.NewPod(tpusim.TPUv6e(), 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(pod, SetC())
	if err != nil {
		t.Fatal(err)
	}
	mult, rot := c.LowerHEMult(), c.LowerRotate()
	s := NewProgram(c).HEMultN(3).Rotate(1).Batch(2).Lower()
	want := 2 * (3*mult.Overlapped + rot.Overlapped)
	if diff := math.Abs(s.Overlapped - want); diff > 1e-12*want {
		t.Errorf("program overlapped %g, want %g", s.Overlapped, want)
	}
	if s.Overlapped <= 0 || s.Overlapped > s.Total {
		t.Errorf("program overlapped %g outside (0, total=%g]", s.Overlapped, s.Total)
	}
	if s.PricedTotal(false) != s.Total || s.PricedTotal(true) != s.Overlapped {
		t.Errorf("PricedTotal switch broken: (%g, %g) vs total %g overlapped %g",
			s.PricedTotal(false), s.PricedTotal(true), s.Total, s.Overlapped)
	}
}
