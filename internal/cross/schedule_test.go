package cross

import (
	"strings"
	"testing"

	"cross/internal/tpusim"
)

// A 1-core Pod schedule must be bit-identical to the Device schedule:
// both satisfy Target and share one lowering code path, where the
// 1-core pod's shards are whole and its collectives free.
func TestGoldenDevicePodScheduleIdentity(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D"} {
		p, err := NamedSet(name)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
		if err != nil {
			t.Fatal(err)
		}
		pod, err := Compile(tpusim.MustPod(tpusim.TPUv6e(), 1), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*Schedule{
			{dev.LowerHEMult(), pod.LowerHEMult()},
			{dev.LowerRotate(), pod.LowerRotate()},
			{dev.LowerRescale(), pod.LowerRescale()},
			{dev.LowerNTT(64), pod.LowerNTT(64)},
		} {
			d, q := pair[0], pair[1]
			if d.Total != q.Total {
				t.Errorf("Set%s %s: device total %g != 1-core pod total %g", name, d.Op, d.Total, q.Total)
			}
			if q.Collective != 0 {
				t.Errorf("Set%s %s: 1-core pod charged collective time %g", name, q.Op, q.Collective)
			}
			if d.Kernels != q.Kernels {
				t.Errorf("Set%s %s: kernel counts diverge: %v vs %v", name, d.Op, d.Kernels, q.Kernels)
			}
			for cat, sec := range d.Trace.ByCategory() {
				if q.Trace.Seconds(cat) != sec {
					t.Errorf("Set%s %s: category %s %g != %g", name, d.Op, cat, sec, q.Trace.Seconds(cat))
				}
			}
		}
	}
}

func TestDeviceCollectiveTraceOwned(t *testing.T) {
	// Regression test for the Target asymmetry: Device.CollectiveTrace
	// used to return nil, forcing nil-guards into every consumer. Both
	// target kinds now own a real (empty, for a bare core) collective
	// trace and take the identical costing code path.
	dev := tpusim.NewDevice(tpusim.TPUv6e())
	pod := tpusim.MustPod(tpusim.TPUv6e(), 1)
	for _, tgt := range []Target{dev, pod} {
		ct := tgt.CollectiveTrace()
		if ct == nil {
			t.Fatalf("%s: CollectiveTrace is nil", tgt.Name())
		}
		// The swap hook must be honoured, not a no-op.
		fresh := tpusim.NewTrace()
		tgt.SetCollectiveTrace(fresh)
		if tgt.CollectiveTrace() != fresh {
			t.Errorf("%s: SetCollectiveTrace did not swap", tgt.Name())
		}
		tgt.SetCollectiveTrace(ct)
	}

	// Guard-free consumers work on both targets and agree bit-for-bit.
	p := SetC()
	cd, err := Compile(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(pod, p)
	if err != nil {
		t.Fatal(err)
	}
	sd, sp := cd.LowerHEMult(), cp.LowerHEMult()
	if sd.Total != sp.Total || sd.Collective != 0 || sp.Collective != 0 {
		t.Errorf("device/1-core-pod schedules diverge: %g/%g collective %g/%g",
			sd.Total, sp.Total, sd.Collective, sp.Collective)
	}
	if dev.CollectiveTrace().Total() != 0 || pod.CollectiveTrace().Total() != 0 {
		t.Error("collective time charged on collective-free targets")
	}
	// Lowering restores the live collective trace on both targets.
	if dev.CollectiveTrace() == nil || pod.CollectiveTrace() == nil {
		t.Error("live collective trace lost after lowering")
	}
	// Reset clears the device's collective trace without nilling it.
	dev.Reset()
	if dev.CollectiveTrace() == nil || dev.CollectiveTrace().Total() != 0 {
		t.Error("Reset broke the device collective trace")
	}
}

func TestCompileRejectsBadTargets(t *testing.T) {
	if _, err := Compile(nil, SetA()); err == nil {
		t.Error("expected error for nil target")
	}
	if _, err := Compile((*tpusim.Pod)(nil), SetA()); err == nil {
		t.Error("expected error for typed-nil pod")
	}
	if _, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), Params{}); err == nil {
		t.Error("expected validation error for zero params")
	}
}

func TestScheduleMetadata(t *testing.T) {
	p := SetD()
	c, err := Compile(tpusim.MustPod(tpusim.TPUv6e(), 4), p)
	if err != nil {
		t.Fatal(err)
	}
	s := c.LowerHEMult()
	if s.Op != "HE-Mult" || s.Target != "TPUv6e-4" || s.Cores != 4 {
		t.Errorf("schedule metadata wrong: %+v", s)
	}
	if s.Collective <= 0 {
		t.Error("4-core HE-Mult should charge collective time")
	}
	if s.Seconds(tpusim.CatICI) != s.Collective {
		t.Error("ICI trace category should equal Collective")
	}
	if got := s.Compute() + s.Collective; got != s.Total {
		t.Errorf("Compute+Collective = %g != Total %g", got, s.Total)
	}
	if s.Kernels.Collectives == 0 || s.Kernels.NTTs == 0 || s.Kernels.VecMuls == 0 {
		t.Errorf("kernel counts degenerate: %v", s.Kernels)
	}
	if !strings.Contains(s.String(), "HE-Mult") || !strings.Contains(s.String(), "collective") {
		t.Errorf("String() missing fields: %s", s.String())
	}
	// Lowering must not pollute the live traces.
	if c.Dev.Trace.Total() != 0 || c.T.CollectiveTrace().Total() != 0 {
		t.Error("LowerHEMult polluted the live traces")
	}
}

func TestScheduleKernelCountsMatchTextbook(t *testing.T) {
	p := SetD()
	c, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
	if err != nil {
		t.Fatal(err)
	}
	ks := c.LowerKeySwitch()
	// ModUp: dnum digits × (INTT + BConv + NTT); ModDown: 2 × (INTT +
	// BConv + NTT). Launch counts, not limb counts.
	wantNTT := p.Dnum + 2
	wantINTT := p.Dnum + 2
	wantBConv := p.Dnum + 2
	if ks.Kernels.NTTs != wantNTT || ks.Kernels.INTTs != wantINTT || ks.Kernels.BConvs != wantBConv {
		t.Errorf("key-switch kernels = %v, want ntt=%d intt=%d bconv=%d",
			ks.Kernels, wantNTT, wantINTT, wantBConv)
	}
	if ks.Kernels.Collectives != 0 {
		t.Error("single-core key switch should have no collectives")
	}
	// On 3 cores the digits shard 3→1 and collectives appear.
	c3, err := Compile(tpusim.MustPod(tpusim.TPUv6e(), 3), p)
	if err != nil {
		t.Fatal(err)
	}
	ks3 := c3.LowerKeySwitch()
	if ks3.Kernels.NTTs >= ks.Kernels.NTTs {
		t.Error("sharded ModUp should launch fewer local transforms")
	}
	if ks3.Kernels.Collectives == 0 {
		t.Error("multi-core key switch must pay collectives")
	}
}

func TestProgramComposesAndMemoizes(t *testing.T) {
	c, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), SetC())
	if err != nil {
		t.Fatal(err)
	}
	mult := c.LowerHEMult().Total
	rot := c.LowerRotate().Total

	prog := NewProgram(c).HEMultN(3).Rotate(1).Rotate(5)
	s := prog.Lower()
	want := 3*mult + rot + rot
	if s.Total != want {
		t.Errorf("program total %g != %g", s.Total, want)
	}
	if prog.Steps() != 3 || prog.OpCount() != 5 {
		t.Errorf("steps=%d opcount=%d", prog.Steps(), prog.OpCount())
	}
	// Memoization: the two Rotate entries share one lowering.
	if len(prog.memo) != 2 {
		t.Errorf("memo holds %d schedules, want 2 (mult, rotate)", len(prog.memo))
	}
	if !strings.Contains(s.Op, "3×HE-Mult") {
		t.Errorf("program op label: %s", s.Op)
	}
}

func TestProgramBatchReplicates(t *testing.T) {
	c, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), SetB())
	if err != nil {
		t.Fatal(err)
	}
	one := NewProgram(c).HEMult().Rescale().Lower()
	batched := NewProgram(c).HEMult().Rescale().Batch(64).Lower()
	if batched.Total != one.Total*64 {
		t.Errorf("batch-64 total %g != 64× single %g", batched.Total, one.Total*64)
	}
	if batched.Kernels.NTTs != one.Kernels.NTTs*64 {
		t.Error("batched kernel counts should scale")
	}
	if !strings.Contains(batched.Op, "64×") {
		t.Errorf("batched op label: %s", batched.Op)
	}
}

func TestProgramOnPodCarriesCollectives(t *testing.T) {
	c, err := Compile(tpusim.MustPod(tpusim.TPUv6e(), 4), SetD())
	if err != nil {
		t.Fatal(err)
	}
	s := NewProgram(c).HEMult().Rotate(1).Lower()
	if s.Collective <= 0 {
		t.Error("pod program should carry collective time")
	}
	if s.Cores != 4 {
		t.Errorf("cores = %d", s.Cores)
	}
	wantColl := c.LowerHEMult().Collective + c.LowerRotate().Collective
	if s.Collective != wantColl {
		t.Errorf("program collective %g != sum of ops %g", s.Collective, wantColl)
	}
}

func TestEmptyProgramLowersToZero(t *testing.T) {
	c, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), SetA())
	if err != nil {
		t.Fatal(err)
	}
	s := NewProgram(c).HEMultN(0).Lower()
	if s.Total != 0 || s.Kernels.Total() != 0 {
		t.Errorf("empty program not zero: %+v", s)
	}
}
