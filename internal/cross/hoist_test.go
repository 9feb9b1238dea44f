package cross

import (
	"testing"

	"cross/internal/tpusim"
)

func TestHoistingAmortizesDecomposition(t *testing.T) {
	c := v6eCompiler(t, SetD())
	plain := c.LowerRotate().Total
	h1 := c.LowerRotateHoisted(1).Total
	h8 := c.LowerRotateHoisted(8).Total

	// One hoisted rotation costs about one plain rotation.
	if ratio := h1 / plain; ratio < 0.7 || ratio > 1.5 {
		t.Errorf("single hoisted rotation %.2f× a plain rotation", ratio)
	}
	// Eight hoisted rotations must be cheaper than eight plain ones.
	if h8 >= 8*plain {
		t.Errorf("hoisting gained nothing: 8 hoisted %.3g vs 8 plain %.3g", h8, 8*plain)
	}
	// And the amortized cost decreases monotonically with group size.
	prev := h1
	for _, k := range []int{2, 4, 8, 16} {
		hk := c.LowerRotateHoisted(k).Total
		if hk/float64(k) >= prev {
			t.Errorf("amortized hoisted cost not decreasing at count %d", k)
		}
		prev = hk / float64(k)
	}
}

func TestHoistedDecomposeSplit(t *testing.T) {
	c := v6eCompiler(t, SetB())
	dec := c.lowerOp("Decompose", c.costDecompose).Total
	app := c.lowerOp("ApplyHoisted", c.costApplyHoisted).Total
	h3 := c.LowerRotateHoisted(3).Total
	if diff := h3 - (dec + 3*app); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("hoisted cost not compositional: %.3g vs %.3g", h3, dec+3*app)
	}
	if c.LowerRotateHoisted(0).Total != 0 {
		t.Error("zero rotations should cost nothing")
	}
}

func TestBootstrapHoistingHelps(t *testing.T) {
	c := v6eCompiler(t, SetD())
	s := DefaultBootstrapSchedule(SetD())
	plain := c.LowerBootstrap(s).Total
	hoisted := c.LowerBootstrapHoisted(s, 8).Total
	if hoisted >= plain {
		t.Errorf("hoisted bootstrap %.3g not cheaper than plain %.3g", hoisted, plain)
	}
	// groupSize 1 degenerates to roughly the plain schedule.
	g1 := c.LowerBootstrapHoisted(s, 1).Total
	if ratio := g1 / plain; ratio < 0.8 || ratio > 1.3 {
		t.Errorf("group-1 hoisted bootstrap %.2f× plain", ratio)
	}
}

func TestVMModel(t *testing.T) {
	vms := tpusim.AllVMs()
	if len(vms) != 4 {
		t.Fatal("expected 4 paper VM setups")
	}
	wantCores := map[string]int{"TPUv4": 8, "TPUv5e": 4, "TPUv5p": 8, "TPUv6e": 8}
	for _, vm := range vms {
		if vm.Cores != wantCores[vm.Spec.Name] {
			t.Errorf("%s: %d cores, want %d (Tab. IV)", vm.Spec.Name, vm.Cores, wantCores[vm.Spec.Name])
		}
		if vm.AmortizedLatency(8) != 8/float64(vm.Cores) {
			t.Errorf("%s: amortization wrong", vm.Name())
		}
		if vm.Throughput(10) != 10*float64(vm.Cores) {
			t.Errorf("%s: throughput scaling wrong", vm.Name())
		}
		if vm.PowerW() <= 0 {
			t.Errorf("%s: no power", vm.Name())
		}
	}
	if _, ok := tpusim.VMByName("TPUv6e"); !ok {
		t.Error("VMByName failed")
	}
	if _, ok := tpusim.VMByName("nope"); ok {
		t.Error("VMByName accepted garbage")
	}
	v6 := tpusim.VMv6e()
	if v6.CoresForPower(50) != 1 {
		t.Error("power matching should floor at 1 core")
	}
	if v6.CoresForPower(1e6) != v6.Cores {
		t.Error("power matching should cap at VM size")
	}
	if v6.Name() != "TPUv6e-8" {
		t.Errorf("Name() = %q", v6.Name())
	}
}
