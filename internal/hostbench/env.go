package hostbench

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"cross/internal/simd"
)

// Environment records where a host benchmark ran. Host numbers are only
// comparable on like hardware, so the baseline file carries its
// environment and Diff warns — without failing the gate — when the
// current machine differs (a v2 runner comparing against a v1 baseline
// explains a 20% "regression" better than the code does).
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the /proc/cpuinfo "model name" (best effort; empty
	// where the file is absent, e.g. non-Linux hosts).
	CPUModel string `json:"cpu_model,omitempty"`
	// Kernels is the ring/rns kernel backend, "avx512" or "go"
	// (simd.Kernels): the same CPU model runs the HE kernels several
	// times faster with the assembly than without it.
	Kernels string `json:"kernels,omitempty"`
}

// CurrentEnvironment captures the running host.
func CurrentEnvironment() Environment {
	return Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernels:    simd.Kernels(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// Mismatches compares a baseline environment against the current one
// and describes every field that differs. Fields the baseline left
// empty are skipped, so a legacy baseline with no environment block
// produces no warnings; kernels is compared only when both sides
// recorded it.
func (e Environment) Mismatches(current Environment) []string {
	var w []string
	diff := func(field, old, new string) {
		if old != "" && old != new {
			w = append(w, fmt.Sprintf("%s: baseline %q vs current %q", field, old, new))
		}
	}
	diff("go_version", e.GoVersion, current.GoVersion)
	diff("goos", e.GOOS, current.GOOS)
	diff("goarch", e.GOARCH, current.GOARCH)
	diff("cpu_model", e.CPUModel, current.CPUModel)
	if current.Kernels != "" {
		diff("kernels", e.Kernels, current.Kernels)
	}
	if e.NumCPU != 0 && e.NumCPU != current.NumCPU {
		w = append(w, fmt.Sprintf("num_cpu: baseline %d vs current %d", e.NumCPU, current.NumCPU))
	}
	if e.GOMAXPROCS != 0 && e.GOMAXPROCS != current.GOMAXPROCS {
		w = append(w, fmt.Sprintf("gomaxprocs: baseline %d vs current %d", e.GOMAXPROCS, current.GOMAXPROCS))
	}
	return w
}

// File is the on-disk BENCH_host.json schema: the measured records plus
// the environment they were measured on.
type File struct {
	Env     Environment `json:"env"`
	Records []Record    `json:"records"`
}

// RunFile measures every gated kernel at benchN through Measure and
// returns the committable BENCH_host.json content: a record's ns/op is
// the best of DefaultRepeats samples, its allocs/op the count over the
// same timed iterations.
func RunFile() (File, error) {
	samples, err := Measure([]int{benchN}, DefaultRepeats)
	if err != nil {
		return File{}, err
	}
	recs := make([]Record, len(samples))
	for i, s := range samples {
		recs[i] = Record{ID: s.ID, NsPerOp: s.Best(), AllocsPerOp: s.AllocsPerOp}
	}
	return File{Env: CurrentEnvironment(), Records: recs}, nil
}
