package harness

import (
	"fmt"
	"strconv"
	"strings"

	"cross/internal/cross"
	"cross/internal/sweep"
)

// This file is the cross-hardware face of the harness: the TPU-vs-GPU
// comparison no HE paper reproduction currently tells (ROADMAP item 2).
// Importing sweep also pulls in the gpusim registration, so every
// report in this package sees the full device registry.

// RepresentativeCores maps every registered device to its
// representative scale-out degree (registry metadata: Tab. IV VM sizes
// for TPUs, DGX/HGX node sizes for GPUs). Tables that need "the"
// multi-core configuration of a part read this instead of a hardcoded
// map, so a newly registered device cannot be silently dropped.
func RepresentativeCores() map[string]int {
	out := make(map[string]int)
	for _, info := range cross.RegisteredTargets() {
		out[info.Name] = info.RepCores
	}
	return out
}

// ParseTargetSpec resolves a "NAME" or "NAME-CORES" target string
// ("H100-8", "TPUv6e-16", "A100-80GB", "A100-80GB-4") against the
// device registry. Device names may themselves contain dashes, so only
// a trailing "-<integer>" whose prefix is a registered name counts as
// a core suffix; a bare registered name means one core.
func ParseTargetSpec(s string) (name string, cores int, err error) {
	if i := strings.LastIndex(s, "-"); i > 0 {
		if n, convErr := strconv.Atoi(s[i+1:]); convErr == nil {
			if _, ok := cross.TargetInfoByName(s[:i]); ok {
				if n < 1 {
					return "", 0, fmt.Errorf("harness: target %q needs at least one core", s)
				}
				return s[:i], n, nil
			}
		}
	}
	if _, ok := cross.TargetInfoByName(s); ok {
		return s, 1, nil
	}
	return "", 0, fmt.Errorf("harness: unknown target %q (valid devices: %s; append -N for cores, e.g. H100-8)",
		s, cross.TargetNames())
}

// VersusEntry is one (target, workload) cell of a cross-hardware
// comparison. Field names are the stable JSON schema crossbench
// -versus -json emits.
type VersusEntry struct {
	Target      string             `json:"target"`       // instantiated name ("H100-8")
	Device      string             `json:"device"`       // registered part name
	Family      string             `json:"family"`       // registry family ("tpu", "gpu")
	Cores       int                `json:"cores"`        // instantiated scale
	Workload    string             `json:"workload"`     // sweep workload name
	TotalS      float64            `json:"total_s"`      // serial latency
	OverlappedS float64            `json:"overlapped_s"` // overlap-aware latency
	CollectiveS float64            `json:"collective_s"` // interconnect share of TotalS
	Kernels     cross.KernelCounts `json:"kernel_counts"`
}

// VersusResult is one cross-hardware comparison: every requested
// target priced on every workload under one parameter set, in request
// order (targets outer, workloads inner).
type VersusResult struct {
	Set     string        `json:"set"`
	Targets []string      `json:"targets"`
	Entries []VersusEntry `json:"entries"`
}

// Versus prices the named targets ("TPUv6e-16", "H100-8") against each
// other on every sweep workload under one parameter set — the engine
// behind crossbench versus.
func Versus(targets []string, set string) (*VersusResult, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("harness: versus needs at least one target")
	}
	p, err := cross.NamedSet(set)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	res := &VersusResult{Set: set, Targets: append([]string(nil), targets...)}
	cache := cross.NewScheduleCache()
	for _, spec := range targets {
		name, cores, err := ParseTargetSpec(spec)
		if err != nil {
			return nil, err
		}
		info, _ := cross.TargetInfoByName(name)
		for _, wl := range sweep.DefaultWorkloads {
			// Targets are stateful trace accumulators: one fresh target
			// per cell, one shared schedule cache across all of them.
			tgt, err := cross.TargetByName(name, cores)
			if err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
			comp, err := cross.Compile(tgt, p)
			if err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
			prog, err := sweep.BuildProgram(comp, wl)
			if err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
			s := prog.WithCache(cache).Lower()
			res.Entries = append(res.Entries, VersusEntry{
				Target:      tgt.Name(),
				Device:      name,
				Family:      info.Family,
				Cores:       cores,
				Workload:    wl,
				TotalS:      s.Total,
				OverlappedS: s.Overlapped,
				CollectiveS: s.Collective,
				Kernels:     s.Kernels,
			})
		}
	}
	return res, nil
}

// Report renders the comparison as an aligned table: workloads down,
// targets across, serial and overlapped columns per target, with the
// fastest serial target per workload marked.
func (v *VersusResult) Report() Report {
	byWl := make(map[string][]VersusEntry)
	var names []string
	for _, e := range v.Entries {
		byWl[e.Workload] = append(byWl[e.Workload], e)
	}
	seen := make(map[string]bool)
	for _, e := range v.Entries {
		if !seen[e.Target] {
			seen[e.Target] = true
			names = append(names, e.Target)
		}
	}

	cols := []string{"workload"}
	for _, n := range names {
		cols = append(cols, n+" ms", n+" ovl ms", n+" coll ms")
	}
	cols = append(cols, "fastest")
	t := newTable(cols...)

	for _, wl := range sweep.DefaultWorkloads {
		entries := byWl[wl]
		if len(entries) == 0 {
			continue
		}
		row := []string{wl}
		best, bestT := "", 0.0
		for _, e := range entries {
			row = append(row,
				fmt.Sprintf("%.3f", e.TotalS*1e3),
				fmt.Sprintf("%.3f", e.OverlappedS*1e3),
				fmt.Sprintf("%.3f", e.CollectiveS*1e3))
			if best == "" || e.TotalS < bestT {
				best, bestT = e.Target, e.TotalS
			}
		}
		row = append(row, best)
		t.row(row...)
	}
	return Report{
		ID:    "Cross-Hardware",
		Title: fmt.Sprintf("Cross-hardware comparison, Set %s (%s)", v.Set, strings.Join(v.Targets, " vs ")),
		Body:  t.String(),
		Notes: "serial and overlap-aware latencies per workload; collective column is ICI time on TPU pods, NVLink time on GPU nodes",
	}
}

// CrossHardware is the registry-wide comparison report (AllReports
// member): every registered device at its representative core count,
// priced on every workload under Set B.
func CrossHardware() Report {
	var targets []string
	for _, info := range cross.RegisteredTargets() {
		targets = append(targets, fmt.Sprintf("%s-%d", info.Name, info.RepCores))
	}
	v, err := Versus(targets, "B")
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	r := v.Report()
	r.Title = "Cross-hardware comparison, Set B (every registered device at representative scale)"
	return r
}
