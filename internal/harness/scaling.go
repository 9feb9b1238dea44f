package harness

import (
	"fmt"

	"cross/internal/cross"
)

// scalingCores is the pod-size axis of the core-count sweep.
var scalingCores = []int{1, 2, 4, 8}

// CoreScaling is the pod-scale scaling sweep (beyond-paper: the §VI
// "multi-chip" direction the paper leaves as future work). For every
// parameter set it lowers HE-Mult and a 64-limb NTT batch onto
// 1/2/4/8-core targets of one device and reports speedup over the
// single-core lowering — the TPU analogue of mgpusim's work-group ×
// compute-unit sweeps.
func CoreScaling() Report {
	r, err := CoreScalingOn("TPUv6e")
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return r
}

// CoreScalingOn runs the sweep on a caller-chosen registered device
// (crossbench scaling -device) — any registry name, TPU
// or GPU.
func CoreScalingOn(name string) (Report, error) {
	if _, ok := cross.TargetInfoByName(name); !ok {
		return Report{}, fmt.Errorf("harness: unknown device %q (valid: %s)", name, cross.TargetNames())
	}
	return coreScalingOn(name), nil
}

func coreScalingOn(device string) Report {
	t := newTable("Set", "Cores", "HE-Mult µs", "Speedup", "Overlap µs", "Hidden %", "NTT×64 µs", "NTT Speedup", "Coll µs")

	ok := true
	for _, name := range []string{"A", "B", "C", "D"} {
		p, err := cross.NamedSet(name)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		var multBase, nttBase float64
		for _, cores := range scalingCores {
			tgt, err := cross.TargetByName(device, cores)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			// One Compile call covers every target size: a pod or GPU
			// node is just another Target, and the Schedule carries the
			// collective share as first-class metadata.
			sc, err := cross.Compile(tgt, p)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			ms := sc.LowerHEMult()
			mult, ici := ms.Total, ms.Collective
			ntt := sc.LowerNTT(64).Total
			if cores == 1 {
				multBase, nttBase = mult, ntt
			}
			// Acceptance bar: multi-core sharded latency strictly below
			// the single-core lowering on the large sets, and the
			// overlap-aware makespan never above the serial model.
			if cores > 1 && (name == "C" || name == "D") && mult >= multBase {
				ok = false
			}
			if cores > 1 && ntt >= nttBase {
				ok = false
			}
			if ms.Overlapped > ms.Total {
				ok = false
			}
			t.row("Set "+name, fmt.Sprint(cores), us(mult),
				fmt.Sprintf("%.2f×", multBase/mult),
				us(ms.Overlapped),
				fmt.Sprintf("%.1f%%", 100*ms.OverlapFraction()),
				us(ntt), fmt.Sprintf("%.2f×", nttBase/ntt),
				us(ici))
		}
	}

	notes := "multi-core targets beat the single-core lowering on the large sets, the limb-parallel NTT batch scales near-linearly, and collective (ICI/NVLink) time grows with the core count — small sets hit their scaling knee early because the per-hop latency term grows while the digit-level win saturates; the overlap column (DAG makespan, DESIGN.md §13) shows how much of that collective time hides behind compute until the interconnect-bound knee"
	if !ok {
		notes = "VIOLATED: sharded lowering not faster than single-core on large kernels, or overlapped makespan above serial"
	}
	return Report{
		ID:    "Core Scaling",
		Title: fmt.Sprintf("Core-count scaling sweep (%s, beyond-paper §VI direction)", device),
		Body:  t.String(),
		Notes: notes,
	}
}
