package cross

import (
	"math"
	"testing"

	"cross/internal/tpusim"
)

func mustPodCompiler(t *testing.T, spec tpusim.Spec, cores int, p Params) *Compiler {
	t.Helper()
	pod, err := tpusim.NewPod(spec, cores)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(pod, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestShardedValidation(t *testing.T) {
	if _, err := Compile(&tpusim.Pod{}, SetA()); err == nil {
		t.Error("expected error for a pod with no cores")
	}
	pod := tpusim.MustPod(tpusim.TPUv6e(), 2)
	if _, err := Compile(pod, Params{}); err == nil {
		t.Error("expected validation error for zero params")
	}
	c, err := Compile(pod, SetB())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumCores() != 2 || c.P.LogN != SetB().LogN {
		t.Error("Compile lost the pod configuration")
	}
}

// A one-core pod must reproduce the single-core compiler exactly: the
// sharded lowering degenerates to the paper's model with zero
// collective cost.
func TestShardedOneCoreIdentity(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D"} {
		p, err := NamedSet(name)
		if err != nil {
			t.Fatal(err)
		}
		single := v6eCompiler(t, p)
		s := mustPodCompiler(t, tpusim.TPUv6e(), 1, p)

		pairs := [][2]*Schedule{
			{single.LowerHEMult(), s.LowerHEMult()},
			{single.LowerKeySwitch(), s.LowerKeySwitch()},
			{single.LowerRescale(), s.LowerRescale()},
			{single.LowerRotate(), s.LowerRotate()},
			{single.LowerHEAdd(), s.LowerHEAdd()},
			{single.LowerNTT(8), s.LowerNTT(8)},
			{single.LowerBConv(p.N(), 4, 8, true), s.LowerBConv(p.N(), 4, 8, true)},
		}
		for _, pr := range pairs {
			if pr[0].Total != pr[1].Total {
				t.Errorf("Set%s %s: single %g != sharded-1 %g", name, pr[0].Op, pr[0].Total, pr[1].Total)
			}
		}
	}
}

// Large kernels must get strictly faster with more cores — the
// acceptance bar for the pod layer. SetC and SetD are the paper's
// large configurations.
func TestShardedSpeedupOnLargeKernels(t *testing.T) {
	for _, name := range []string{"C", "D"} {
		p, err := NamedSet(name)
		if err != nil {
			t.Fatal(err)
		}
		base := v6eCompiler(t, p).LowerHEMult().Total
		prev := base
		for _, cores := range []int{2, 4, 8} {
			got := mustPodCompiler(t, tpusim.TPUv6e(), cores, p).LowerHEMult().Total
			if got >= base {
				t.Errorf("Set%s %d cores: sharded HE-Mult %g ≥ single-core %g", name, cores, got, base)
			}
			// The largest set must keep improving through 8 cores;
			// smaller sets may hit their scaling knee earlier (the
			// collective latency term grows with the core count).
			if name == "D" && got >= prev {
				t.Errorf("Set%s %d cores: HE-Mult %g not below %d-core time %g", name, cores, got, cores/2, prev)
			}
			prev = got
		}
	}
}

// The pure limb-parallel NTT batch has no collectives and must scale
// nearly linearly when the batch divides evenly.
func TestShardedNTTScalesLinearly(t *testing.T) {
	p := SetD()
	single := v6eCompiler(t, p)
	base := single.LowerNTT(64).Total
	got := mustPodCompiler(t, tpusim.TPUv6e(), 8, p).LowerNTT(64).Total
	if want := single.LowerNTT(8).Total; got != want {
		t.Errorf("sharded NTT(64) on 8 cores = %g, want per-core NTT(8) = %g", got, want)
	}
	if base/got < 2 {
		t.Errorf("NTT batch speedup %g too low", base/got)
	}
}

// Collective time must appear in the schedule under CatICI on top of
// the core compute, and lowering must leave the pod's live core and
// collective traces untouched.
func TestShardedTraceAccounting(t *testing.T) {
	pod := tpusim.MustPod(tpusim.TPUv6e(), 4)
	c, err := Compile(pod, SetD())
	if err != nil {
		t.Fatal(err)
	}
	s := c.LowerKeySwitch()
	if s.Collective <= 0 {
		t.Fatal("key switch on 4 cores produced no collective time")
	}
	if s.Seconds(tpusim.CatICI) != s.Collective {
		t.Errorf("CatICI %g != Collective %g", s.Seconds(tpusim.CatICI), s.Collective)
	}
	if s.Total <= s.Collective {
		t.Error("schedule total should include core compute on top of collectives")
	}
	if pod.TotalSeconds() != 0 {
		t.Errorf("lowering charged %g s to the live pod traces", pod.TotalSeconds())
	}
}

// Collective overhead must keep the model honest: with an absurdly slow
// ICI, sharding should stop paying off (no free lunch in the model).
func TestShardedRespectsICICost(t *testing.T) {
	p := SetC()
	spec := tpusim.TPUv6e()
	spec.ICIBandwidth = 1e6 // 1 MB/s
	spec.ICILatency = 1e-2  // 10 ms per hop
	base := v6eCompiler(t, p).LowerHEMult().Total
	got := mustPodCompiler(t, spec, 8, p).LowerHEMult().Total
	if got <= base {
		t.Error("crippled ICI should make sharding slower than single-core")
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Error("degenerate sharded time")
	}
}
